"""The benchmark's workloads.

Each workload prepares its inputs from the seed and offers `chunks`: callables
that each make one fixed block of calls into the program and return what the
program returned. The runner repeats the chunks, times every call, and hands
each chunk's first output to `check`, which compares it with the independent
reference in `reference.py` or with a property the model must have. Later
repetitions of a chunk must reproduce its first output exactly.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import reference as ref

#: Relative tolerance, in units of the transaction scale, for payoff checks.
PAYOFF_TOL = 1e-9
#: Tie band for best responses: payoffs closer than this are not compared.
#: It is ten times the program's own tie tolerance.
BEST_RESPONSE_BAND = 1e-8
VECTOR = ("buyer", "seller", "government")
#: Tolerance of the oracle's bisection against the exact root.
ORACLE_TOL = 1e-6
#: Agreement required of a closed-form threshold with the exact root.
CLOSED_FORM_RTOL = 1e-9
#: Best-response checks `oracle.validate` makes per draw.
BEST_RESPONSE_CASES = 2 * len(ref.SCENARIOS) * len(ref.BEST_RESPONSE_GAMMAS)
#: A threshold failure in a validate report: (draw tag, family).
THRESHOLD_FAILURE = re.compile(r"threshold (?:sentinel )?mismatch \[([^\]]+)\] (\w+):")


def params(policy, te) -> dict:
    """The reference's parameter mapping for a program (policy, te) pair."""
    return {k: getattr(policy, k) if hasattr(policy, k) else getattr(te, k) for k in ref.KEYS}


class Workload:
    """Chunks of program calls, their operation counts and their checks."""

    chunks: list
    ops: list[int]  # operations per chunk
    failed: list[int]  # operations per chunk that failed their check

    def __init__(self, vg) -> None:
        self.vg = vg
        self.modes = [vg.model.SanctionBaseMode(m) for m in ref.MODES]
        self.problems: list[str] = []  # the first few, verbatim
        self.counts: Counter = Counter()

    def problem(self, message: str) -> None:
        self.counts["problems"] += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def fingerprint(self, out) -> str:
        return hashlib.sha256(pickle.dumps(out)).hexdigest()

    def check(self, index: int, out) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every chunk's first output."""

    def expect_near(self, message: str, got, want, tol) -> None:
        if not abs(got - want) <= tol:
            self.problem(f"{message}: got {got!r}, want {want!r} within {tol:.3g}")


class ReportForecast:
    """What `oracle.validate` must report for one seed and mode.

    Validate bisects a family on a draw when its guard holds and the closed
    form gives a value inside the family's range. Every guard says the margin
    is not flat, so it holds exactly when the reference finds a root. Validate
    reports a failure when the bisection misses the closed form by more than
    its tolerance, ORACLE_TOL, or finds no crossing while the closed form lies
    further than that from the range's edges. The bisection finds the root
    far closer than ORACLE_TOL, so both are decided from the reference's root.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.failures: set[tuple[str, str]] = set()
        #: Failures too close to call: within a tenth of the tolerance of
        #: it, or with the root at the range's edge. Either outcome is accepted.
        self.open: set[tuple[str, str]] = set()
        #: Bounds on the report's largest deviation: without and with the
        #: open cases.
        self.deviation = [0.0, 0.0]

    def add(self, tag, family, result, root) -> None:
        lo, hi = ref.THRESHOLD_FAMILIES[family][-1]
        if root is None or result.sentinel.value != "value" or not lo <= result.value <= hi:
            return
        self.checks += 1
        key, root = (tag, family), float(root)
        miss = abs(result.value - root)
        if min(abs(root - lo), abs(root - hi)) <= ORACLE_TOL:
            # The bisection may find the root or a sentinel.
            self.deviation[1] = max(self.deviation[1], miss)
            self.open.add(key)
            return
        if lo < root < hi:
            self.deviation = [max(d, miss) for d in self.deviation]
        else:
            miss = min(result.value - lo, hi - result.value)
        if abs(miss - ORACLE_TOL) <= ORACLE_TOL / 10:
            self.open.add(key)
        elif miss > ORACLE_TOL:
            self.failures.add(key)


class OracleValidate(Workload):
    """`oracle.validate` in both sanction modes over seeded draws.

    One operation is one draw validated in one mode. A chunk validates
    `DRAWS` draws of its own seed in both modes, so each chunk holds whole
    rounds. An operation fails when a closed-form threshold from `dominance`
    disagrees with the exact root of the reference's payoff margin. Each
    report must hold the counts, the largest deviation and the failures that
    `ReportForecast` derives from the reference and the closed forms.
    """

    CHUNKS, DRAWS = 128, 4
    #: Chunks whose best responses and oracle thresholds are also re-derived.
    DEEP_CHUNKS = 1

    def __init__(self, vg, seed: int, tmp) -> None:
        super().__init__(vg)
        self.seeds = [seed * self.CHUNKS + c for c in range(self.CHUNKS)]
        self.chunks = [functools.partial(self._validate, s) for s in self.seeds]
        self.ops = [len(self.modes) * self.DRAWS] * self.CHUNKS
        self.failed = [0] * self.CHUNKS
        model = vg.model
        self.regimes = {
            family: model.AuditRegime(spec[4] or 0.0)
            for family, spec in ref.THRESHOLD_FAMILIES.items()
        }
        # The closed forms take different arguments; pass each the ones it names.
        self.closed_forms = {
            family: (
                getattr(vg.dominance, family),
                list(inspect.signature(getattr(vg.dominance, family)).parameters),
            )
            for family in ref.THRESHOLD_FAMILIES
        }

    def _validate(self, seed: int):
        return [self.vg.oracle.validate(seed, self.DRAWS, mode) for mode in self.modes]

    def check(self, index: int, reports) -> None:
        seed = self.seeds[index]
        draws = list(self.vg.oracle.iter_draws(seed, self.DRAWS))
        for mode, report in zip(self.modes, reports):
            want = ReportForecast()
            for draw in draws:
                exact = ref.exact(params(draw.policy, draw.te))
                wrong = []
                for family in ref.THRESHOLD_FAMILIES:
                    result = self._closed_form(family, draw, mode)
                    root = ref.threshold_root(exact, family, mode.value)
                    if not self._closed_form_agrees(result, root):
                        wrong.append(family)
                    want.add(draw.tag, family, result, root)
                if wrong:
                    self.failed[index] += 1
                    self.counts.update(f"{mode.value} {family} disagrees" for family in wrong)
                if index < self.DEEP_CHUNKS:
                    self._check_best_responses(draw, exact, mode)
                    self._check_oracle_thresholds(draw, exact, mode)
            self._check_report(report, f"validate seed {seed} {mode.value}", seed, want)

    def _closed_form(self, family, draw, mode):
        fn, names = self.closed_forms[family]
        available = {
            "policy": draw.policy,
            "te": draw.te,
            "regime": self.regimes[family],
            "mode": mode,
        }
        return fn(**{name: available[name] for name in names if name in available})

    def _closed_form_agrees(self, result, root) -> bool:
        if result.sentinel is not self.vg.dominance.Sentinel.VALUE:
            # A sentinel stands for "no crossing in the unit interval".
            return root is None or not 0 <= root <= 1
        if root is None:
            self.counts["closed form on a flat margin"] += 1
            return True
        root = float(root)
        return abs(result.value - root) <= CLOSED_FORM_RTOL * max(1.0, abs(root))

    def _check_report(self, report, where, seed, want) -> None:
        """The report must hold what `ReportForecast` says validate finds."""
        expected = {
            "seed": seed,
            "draws": self.DRAWS,
            "best_response_checks": self.DRAWS * BEST_RESPONSE_CASES,
            "threshold_checks": want.checks,
        }
        for key, value in expected.items():
            if getattr(report, key) != value:
                self.problem(f"{where}: {key} {getattr(report, key)}, want {value}")
        deviation = report.max_threshold_deviation
        if not want.deviation[0] - ORACLE_TOL <= deviation <= want.deviation[1] + ORACLE_TOL:
            self.problem(f"{where}: max threshold deviation {deviation!r}, want {want.deviation}")
        failures = set()
        for message in report.failures:
            match = THRESHOLD_FAILURE.match(message)
            if match is None:
                self.problem(f"{where}: unexpected failure {message!r:.200}")
            else:
                failures.add(match.groups())
        for key in sorted((failures ^ want.failures) - want.open):
            missing = "missing" if key in want.failures else "unexpected"
            self.problem(f"{where}: {missing} threshold failure {key}")
        self.counts["validate reports checked"] += 1
        self.counts["threshold failures reported"] += len(failures)

    def _check_best_responses(self, draw, exact, mode) -> None:
        model, dominance = self.vg.model, self.vg.dominance
        band = BEST_RESPONSE_BAND * ref.scale(exact)
        for scenario in ref.SCENARIOS:
            for gamma in ref.BEST_RESPONSE_GAMMAS:
                for agent in ("buyer", "seller"):
                    want = ref.best_response(
                        exact, agent, scenario, Fraction(gamma), mode.value, band
                    )
                    if want is None:
                        self.counts["best responses in the tie band"] += 1
                        continue
                    got = dominance.dominant_events(
                        dominance.Agent(agent),
                        model.Scenario(scenario),
                        model.AuditRegime(gamma),
                        draw.policy,
                        draw.te,
                        mode,
                    )
                    self.counts["best responses checked"] += 1
                    if tuple(e.value for e in got) != want:
                        self.problem(
                            f"best response {draw.tag} {mode.value} {agent} {scenario} "
                            f"gamma={gamma}: got {[e.value for e in got]}, want {want}"
                        )

    def _check_oracle_thresholds(self, draw, exact, mode) -> None:
        model, dominance, oracle = self.vg.model, self.vg.dominance, self.vg.oracle
        value = dominance.Sentinel.VALUE
        for family, spec in ref.THRESHOLD_FAMILIES.items():
            agent, first, second, scenario, _, varied, (lo, hi) = spec
            comparison = oracle.Comparison(
                dominance.Agent(agent),
                model.Event(first),
                model.Event(second),
                model.Scenario(scenario),
                self.regimes[family],
            )
            try:
                got = oracle.oracle_threshold(varied, comparison, draw, mode, lo, hi)
            except oracle.NonMonotoneError as exc:
                self.problem(f"oracle threshold {draw.tag} {mode.value} {family}: {exc}")
                continue
            root = ref.threshold_root(exact, family, mode.value)
            at_lo = ref.threshold_margin(exact, family, mode.value, Fraction(lo))
            if root is not None and lo + ORACLE_TOL < root < hi - ORACLE_TOL:
                ok = got.sentinel is value and abs(got.value - float(root)) <= ORACLE_TOL
            elif (root is None and at_lo != 0) or (
                root is not None and not lo - ORACLE_TOL <= root <= hi + ORACLE_TOL
            ):
                want = "always-satisfied" if at_lo > 0 else "never-satisfied"
                ok = got.sentinel.value == want
            else:
                self.counts["oracle thresholds at the edge of their range"] += 1
                continue
            self.counts["oracle thresholds checked"] += 1
            if not ok:
                self.problem(
                    f"oracle threshold {draw.tag} {mode.value} {family}: got {got}, "
                    f"exact root {float(root) if root is not None else None}"
                )


class RegionRaster(Workload):
    """`vat-game region --preset section6` in both modes, through `cli.main`.

    One operation is one (theta, gamma) cell classified and written. The grid
    has `CELLS` points a side at step `STEP`; the seed shifts both axes by up
    to one step, so every seed rasters different cells. Each chunk rasters the
    whole grid of one mode in one `cli.main` call, so `peak_rss_mib` sees a
    whole raster's rows.
    """

    STEP, CELLS = 0.01, 100
    #: Tie band relative to the transaction scale. It also covers the CSV's
    #: rounding of theta and gamma to six decimals.
    TIE_BAND = 1e-6

    def __init__(self, vg, seed: int, tmp) -> None:
        super().__init__(vg)
        rng = random.Random(seed)
        theta0, gamma0 = (rng.randrange(int(self.STEP * 1e6)) / 1e6 for _ in range(2))
        self.thetas = [theta0 + k * self.STEP for k in range(self.CELLS)]
        self.gammas = [gamma0 + k * self.STEP for k in range(self.CELLS)]
        self.paths = [tmp / f"region-{mode}.csv" for mode in ref.MODES]
        axes = []
        for axis, values in (("theta", self.thetas), ("gamma", self.gammas)):
            axes += [f"--{axis}-min", repr(values[0]), f"--{axis}-max", repr(values[-1])]
            axes += [f"--{axis}-step", repr(self.STEP)]
        self.argv = [
            ["region", "--preset", "section6", "--mode", mode, *axes, "--out", str(path)]
            for mode, path in zip(ref.MODES, self.paths)
        ]
        self.chunks = [functools.partial(self._raster, i) for i in range(len(self.argv))]
        self.ops = [self.CELLS * self.CELLS] * len(self.chunks)
        self.failed = [0] * len(self.chunks)
        # (mode, gamma) -> [largest evading theta, smallest complying theta]
        self.switch: dict[tuple[str, str], list[float]] = {}

    def _raster(self, index: int):
        return index, self.vg.cli.main(self.argv[index])

    def _files(self, index: int):
        path = self.paths[index]
        return path, path.with_name(path.stem + ".frontiers" + path.suffix)

    def fingerprint(self, out) -> str:
        digest = hashlib.sha256(pickle.dumps(out))
        for path in self._files(out[0]):
            if path.exists():
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def check(self, index: int, out) -> None:
        mode = ref.MODES[index]
        if out[1] != 0:
            self.problem(f"region --mode {mode} exited {out[1]}")
            return
        raster, frontiers = self._files(index)
        self._check_raster(raster, mode, ref.SECTION6_PARAMS)
        self._check_frontiers(frontiers, mode, ref.SECTION6_PARAMS)

    def finish(self) -> None:
        # Compliance pays more as theta rises and no evasion payoff depends on
        # theta, so at every gamma each complying theta lies above each evading one.
        for (mode, gamma), (last_evading, first_complying) in self.switch.items():
            if last_evading > first_complying:
                self.problem(f"region {mode}: compliance not monotone in theta at gamma={gamma}")

    def _check_raster(self, path, mode, p) -> None:
        band = self.TIE_BAND * ref.scale(p)
        seen_thetas, seen_gammas, cells = set(), set(), 0
        with open(path) as f:
            header = next(f).rstrip("\n")
            if header != "theta,gamma,best_event,complies":
                self.problem(f"{path.name}: header {header!r}")
                return
            for line in f:
                theta_s, gamma_s, best, complies = line.rstrip("\n").split(",")
                theta, gamma = float(theta_s), float(gamma_s)
                cells += 1
                seen_thetas.add(theta)
                seen_gammas.add(gamma)
                span = self.switch.setdefault((mode, gamma_s), [-1.0, 2.0])
                if complies == "true":
                    span[1] = min(span[1], theta)
                else:
                    span[0] = max(span[0], theta)
                if complies != str(best == ref.COMPLY).lower():
                    self.problem(f"{path.name}: {line.strip()} contradicts itself")
                want = ref.coalition_best(dict(p, theta=theta), gamma, mode, band)
                if want is None:
                    self.counts["raster cells in the tie band"] += 1
                elif best != want:
                    self.problem(f"{path.name}: {line.strip()}, coalition argmax is {want}")
                else:
                    self.counts["raster cells checked"] += 1
        axes = (("theta", seen_thetas, self.thetas), ("gamma", seen_gammas, self.gammas))
        for axis, got, want in axes:
            got = sorted(got)
            if len(got) != len(want) or any(abs(a - b) > 1e-6 for a, b in zip(got, want)):
                self.problem(f"{path.name}: {axis} axis has {len(got)} points, want {len(want)}")
        if cells != self.CELLS * self.CELLS:
            self.problem(f"{path.name}: {cells} cells, want {self.CELLS * self.CELLS}")

    def _check_frontiers(self, path, mode, p) -> None:
        with open(path) as f:
            rows = [line.rstrip("\n").split(",") for line in f]
        if len(rows) != 4 or rows[0] != ["variant", "intercept", "slope", "mode"]:
            self.problem(f"{path.name}: unexpected layout {rows!r:.200}")
            return
        for variant, intercept, slope, row_mode in rows[1:]:
            intercept, slope = float(intercept), float(slope)
            want_intercept, want_slope = ref.frontier(p, "evade-" + variant, mode)
            self.expect_near(f"{path.name} {variant} intercept", intercept, want_intercept, 1e-6)
            self.expect_near(f"{path.name} {variant} slope", slope, want_slope, 1e-6)
            if row_mode != mode:
                self.problem(f"{path.name}: mode {row_mode}, want {mode}")
            if variant == "wt":
                self.expect_near(
                    f"{path.name} section-6 intercept",
                    intercept,
                    ref.SECTION6_WT_INTERCEPT,
                    ref.ANCHOR_TOL,
                )
            if mode == "paper-literal":
                self.expect_near(
                    f"{path.name} {variant} section-6 slope",
                    slope,
                    ref.SECTION6_LITERAL_SLOPE,
                    ref.ANCHOR_TOL,
                )


class PayoffSweep(Workload):
    """Full payoff vectors through the scalar API, on seeded draws.

    One operation is one draw priced: every defined (scenario, audit state,
    event) cell through `payoff_event` and `government_revenue`, the expected
    payoff of every canonical event on a gamma grid in both modes, and the
    appendix table at the draw's parameters. The first draw is the appendix
    preset itself, whose table must match the published figures.
    """

    CHUNKS, DRAWS = 16, 32
    GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __init__(self, vg, seed: int, tmp) -> None:
        super().__init__(vg)
        model = vg.model
        inputs = [vg.config.build_parameters("appendix", None, None)]
        inputs += [
            (d.policy, d.te) for d in vg.oracle.iter_draws(seed, self.CHUNKS * self.DRAWS - 1)
        ]
        self.inputs = [
            inputs[c * self.DRAWS : (c + 1) * self.DRAWS] for c in range(self.CHUNKS)
        ]
        self.chunks = [functools.partial(self._price, chunk) for chunk in self.inputs]
        self.ops = [self.DRAWS] * self.CHUNKS
        self.failed = [0] * self.CHUNKS
        self.cells = [
            (model.Scenario(s), a, model.Event(e)) for s, a, e in ref.defined_cells()
        ]
        self.regimes = [model.AuditRegime(g) for g in self.GAMMAS]
        self.mixtures = [
            (model.Scenario(s), model.Event(e)) for s in ref.SCENARIOS for e in ref.CANONICAL
        ]

    def _price(self, inputs):
        model, report = self.vg.model, self.vg.report
        out = []
        for policy, te in inputs:
            cells = [
                (
                    model.payoff_event(s, a, e, policy, te),
                    model.government_revenue(s, a, e, policy, te),
                )
                for s, a, e in self.cells
            ]
            mixtures = [
                model.expected_payoff(s, r, e, policy, te, mode)
                for mode in self.modes
                for s, e in self.mixtures
                for r in self.regimes
            ]
            out.append((cells, mixtures, report.compute_appendix_table(policy, te)))
        return out

    def check(self, index: int, out) -> None:
        for k, ((policy, te), (cells, mixtures, table)) in enumerate(zip(self.inputs[index], out)):
            p = params(policy, te)
            tol = PAYOFF_TOL * ref.scale(p)
            surplus = p["y_b"] + p["y_s"] - p["x_i"]
            self._check_cells(p, cells, tol, surplus)
            self._check_mixtures(p, mixtures, tol, surplus)
            want = ref.appendix_table(p)
            for row, columns in want.items():
                for column, value in columns.items():
                    self.expect_near(f"appendix {row}/{column}", table[row][column], value, tol)
            if index == 0 and k == 0:
                for row, columns in ref.PUBLISHED_APPENDIX.items():
                    for column, value in columns.items():
                        self.expect_near(
                            f"published {row}/{column}",
                            table[row][column],
                            value,
                            ref.PUBLISHED_TOL,
                        )
            self.counts["draws priced and checked"] += 1

    def _check_cells(self, p, cells, tol, surplus) -> None:
        for (s, a, e), (pv, gov) in zip(ref.defined_cells(), cells):
            buyer, seller, streams = ref.cell(p, s, a, e)
            where = f"cell {s}/{'audited' if a else 'unaudited'}/{e}"
            self.expect_near(f"{where} buyer", pv.buyer, buyer, tol)
            self.expect_near(f"{where} seller", pv.seller, seller, tol)
            self.expect_near(f"{where} government", pv.government, sum(streams), tol)
            got = (gov.income_tax_seller, gov.income_tax_buyer, gov.vat)
            for name, g, w in zip(("seller tax", "buyer tax", "vat"), got, streams):
                self.expect_near(f"{where} {name}", g, w, tol)
            total = pv.buyer + pv.seller + pv.government
            self.expect_near(f"{where} conservation", total, surplus, tol)

    def _check_mixtures(self, p, mixtures, tol, surplus) -> None:
        n = len(self.GAMMAS)
        keys = [(m, s, e) for m in ref.MODES for s in ref.SCENARIOS for e in ref.CANONICAL]
        for j, (mode, s, e) in enumerate(keys):
            series = mixtures[j * n : (j + 1) * n]
            at0, at1 = series[0], series[-1]
            literal = mode == "paper-literal" and s != ref.NO_TAXES and e != ref.COMPLY
            for gamma, pv in zip(self.GAMMAS, series):
                where = f"expected {mode} {s}/{e} gamma={gamma}"
                got = [getattr(pv, name) for name in VECTOR]
                for name, g, w in zip(VECTOR, got, ref.expected(p, s, gamma, e, mode)):
                    self.expect_near(f"{where} {name}", g, w, tol)
                    self.expect_near(
                        f"{where} {name} affine in gamma",
                        g,
                        (1 - gamma) * getattr(at0, name) + gamma * getattr(at1, name),
                        tol,
                    )
                gap = ref.literal_gap(p, gamma) if literal else 0.0
                self.expect_near(f"{where} conservation gap", sum(got) - surplus, gap, tol)


WORKLOADS = {
    "oracle-validate": OracleValidate,
    "region-raster": RegionRaster,
    "payoff-sweep": PayoffSweep,
}
