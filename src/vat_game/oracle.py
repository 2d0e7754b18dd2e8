"""Brute-force validation of every closed-form result in the package.

Nothing here reuses a closed form: best responses are recomputed by
exhaustive enumeration over the payoff engine, and thresholds by a
bracketing root search on the relevant payoff margin (a single-crossing
check on an array of samples, then Illinois regula falsi). A seeded batch
run checks that the analytical layer (dominance, coalition) agrees
everywhere.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from . import coalition, dominance
from .dominance import Agent, ThresholdResult
from .model import (
    CANONICAL_EVENTS,
    AuditRegime,
    Event,
    SanctionBaseMode,
    Scenario,
    TaxPolicy,
    TransactionEndowments,
    expected_payoff,
)

#: Absolute tolerance of the threshold search on the varied parameter.
BISECT_TOL = 1e-10

#: Sample count for the empirical single-crossing check before refining.
MONOTONE_SAMPLES = 33


class NonMonotoneError(RuntimeError):
    """Sampled payoff margins are not single-crossing in the varied parameter."""


@dataclass(frozen=True)
class ParameterDraw:
    policy: TaxPolicy
    te: TransactionEndowments
    tag: str  # seed-derived provenance, e.g. "seed42/17"


def draw_parameters(rng: np.random.Generator, tag: str) -> ParameterDraw:
    """One admissible random parameter set.

    Rates uniform on [0, 0.6], sanctions uniform on [0, 1], x_o log-uniform
    on [10, 1e5], x_i uniform on [0, x_o], incomes log-uniform on
    [1e3, 1e6]. Wide enough to cover all worked examples with margin.
    """
    x_o = float(10.0 ** rng.uniform(1.0, 5.0))
    policy = TaxPolicy(
        t_s=float(rng.uniform(0.0, 0.6)),
        t_b=float(rng.uniform(0.0, 0.6)),
        v=float(rng.uniform(0.0, 0.6)),
        delta=float(rng.uniform(0.0, 1.0)),
        theta=float(rng.uniform(0.0, 1.0)),
        s_v=float(rng.uniform(0.0, 1.0)),
        s_ys=float(rng.uniform(0.0, 1.0)),
    )
    te = TransactionEndowments(
        x_o=x_o,
        x_i=float(rng.uniform(0.0, x_o)),
        y_s=float(10.0 ** rng.uniform(3.0, 6.0)),
        y_b=float(10.0 ** rng.uniform(3.0, 6.0)),
    )
    return ParameterDraw(policy, te, tag)


def iter_draws(seed: int, count: int) -> Iterator[ParameterDraw]:
    """Deterministic draw sequence: same seed, same draws, any parallelism."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield draw_parameters(rng, f"seed{seed}/{i}")


def oracle_best_response(
    agent: Agent,
    scenario: Scenario,
    regime: AuditRegime,
    draw: ParameterDraw,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> tuple[Event, ...]:
    """Exhaustive argmax over the canonical events, via expected_payoff only."""
    payoffs = {
        event: dominance.agent_payoff(
            agent, expected_payoff(scenario, regime, event, draw.policy, draw.te, mode)
        )
        for event in CANONICAL_EVENTS
    }
    best = max(payoffs.values())
    tol = dominance.TIE_RTOL * draw.te.scale
    return tuple(e for e in CANONICAL_EVENTS if payoffs[e] >= best - tol)


@dataclass(frozen=True)
class Comparison:
    """A pairwise payoff comparison whose margin is searched for a crossing."""

    agent: Agent
    first: Event
    second: Event
    scenario: Scenario
    regime: AuditRegime


#: Parameter name -> the input of a margin that holds it.
_OWNER = {
    f.name: owner
    for owner, cls in (
        ("policy", TaxPolicy),
        ("te", TransactionEndowments),
        ("regime", AuditRegime),
    )
    for f in dataclasses.fields(cls)
}

Margin = Callable[[float | np.ndarray], float | np.ndarray]


def _margin_fn(
    varied_parameter: str,
    comparison: Comparison,
    draw: ParameterDraw,
    mode: SanctionBaseMode,
    lo: float,
    hi: float,
) -> Margin:
    """The comparison's payoff margin as a function of one parameter.

    The margin takes a float or an ndarray of parameter values and returns
    agent_payoff(first) - agent_payoff(second) over `expected_payoff`: at
    each point, the value of `dominance.compare(...).margin`. The varied
    parameter is validated once, at `lo` and `hi`, by its dataclass; every
    admissible range is an interval, so every point between them is
    admissible too. Evaluation runs on a plain view of the draw with the
    varied field replaced, which broadcasts over arrays.
    """
    owner = _OWNER.get(varied_parameter)
    if owner is None:
        raise ValueError(f"unknown parameter {varied_parameter!r}")
    inputs = {"policy": draw.policy, "te": draw.te, "regime": comparison.regime}
    for x in (lo, hi):
        dataclasses.replace(inputs[owner], **{varied_parameter: x})
    fields = vars(inputs[owner])
    agent, scenario = comparison.agent, comparison.scenario

    def margin(x):
        view = {**inputs, owner: SimpleNamespace(**{**fields, varied_parameter: x})}
        first, second = (
            dominance.agent_payoff(
                agent,
                expected_payoff(
                    scenario, view["regime"], event, view["policy"], view["te"], mode
                ),
            )
            for event in (comparison.first, comparison.second)
        )
        return first - second

    return margin


def oracle_threshold(
    varied_parameter: str,
    comparison: Comparison,
    draw: ParameterDraw,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
    lo: float = 0.0,
    hi: float = 1.0,
) -> ThresholdResult:
    """Locate the margin's sign change in [lo, hi].

    The margin must be single-crossing over the range; this is asserted on
    MONOTONE_SAMPLES equispaced samples and violated expectations fail
    loudly. With no sign change, the constant sign is reported as an
    always/never sentinel on the first-preferred condition.
    """
    margin = _margin_fn(varied_parameter, comparison, draw, mode, lo, hi)
    return bisect_single_crossing(margin, lo, hi, what=f"{varied_parameter!r} for {comparison}")


def bisect_single_crossing(
    margin: Margin,
    lo: float,
    hi: float,
    what: str = "margin",
) -> ThresholdResult:
    """Single-crossing check plus bracketed refinement on an arbitrary margin.

    The margin must accept an ndarray: the check evaluates it once on all
    MONOTONE_SAMPLES points. The first sample that is zero or whose sign
    differs from the next one's brackets the crossing, which
    `_refine_bracket` narrows to BISECT_TOL.
    """
    xs = np.linspace(lo, hi, MONOTONE_SAMPLES)
    ys = np.broadcast_to(margin(xs), xs.shape)
    signs = (ys > 0).astype(int) - (ys < 0)
    left, right = signs[:-1], signs[1:]
    crossings = np.count_nonzero((left != 0) & (right != 0) & (left != right))
    if crossings > 1:
        raise NonMonotoneError(
            f"margin in {what} is not single-crossing on [{lo}, {hi}]"
        )

    nonzero = signs[signs != 0]
    if crossings == 0 and np.all(nonzero == nonzero[:1]):
        if nonzero.size == 0:
            return ThresholdResult.of(lo)  # identically zero: degenerate tie
        if nonzero[0] > 0:
            return ThresholdResult.always_satisfied()
        return ThresholdResult.never_satisfied()

    i = np.flatnonzero((left == 0) | (left != right))[0]
    if signs[i] == 0:
        return ThresholdResult.of(float(xs[i]))
    return _refine_bracket(
        margin, float(xs[i]), float(xs[i + 1]), float(ys[i]), float(ys[i + 1])
    )


def _refine_bracket(
    margin: Margin, a: float, b: float, fa: float, fb: float
) -> ThresholdResult:
    """Narrow the bracket [a, b] to BISECT_TOL by Illinois regula falsi.

    fa is nonzero and fb has the other sign or is zero. Each step keeps the
    sub-bracket whose ends differ in sign. When the same end is kept twice
    running, its stored margin is halved, so the secant cannot stall against
    it. An interpolation step that fails to halve the bracket is followed by
    a midpoint step, so the search needs at most about twice the steps of
    bisection. Interpolated points keep half a tolerance (or one float,
    where that is wider) from both ends: a root within that of an end is
    then bracketed to within the tolerance by the next step.
    """
    kept = 0  # +1 when the last step kept b, -1 when it kept a
    midpoint_next = False
    while b - a > BISECT_TOL:
        width = b - a
        if midpoint_next:
            x = 0.5 * (a + b)
        else:
            edge = max(0.5 * BISECT_TOL, math.ulp(max(abs(a), abs(b))))
            x = min(max(a - fa * width / (fb - fa), a + edge), b - edge)
        if not a < x < b:
            break  # a and b are adjacent floats, wider apart than the tolerance
        fx = float(margin(x))
        if fx == 0.0:
            return ThresholdResult.of(x)
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
            if kept > 0:
                fb *= 0.5
            kept = 1
        else:
            b, fb = x, fx
            if kept < 0:
                fa *= 0.5
            kept = -1
        midpoint_next = not midpoint_next and b - a > 0.5 * width
    return ThresholdResult.of(0.5 * (a + b))


@dataclass
class ValidationReport:
    """Outcome of a seeded batch validation run."""

    seed: int
    draws: int
    best_response_checks: int = 0
    threshold_checks: int = 0
    max_threshold_deviation: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list[str]:
        return [
            f"seed={self.seed} draws={self.draws}",
            f"best-response checks: {self.best_response_checks}",
            f"threshold checks: {self.threshold_checks}",
            f"max threshold deviation: {self.max_threshold_deviation:.3e}",
            f"failures: {len(self.failures)}",
            *(f"  FAIL {msg}" for msg in self.failures[:50]),
        ]


_REGIMES = (AuditRegime(0.0), AuditRegime(0.37), AuditRegime(1.0))
_SCENARIOS = (Scenario.NO_TAXES, Scenario.TAX, Scenario.TAX_WITH_DEDUCTIONS)

#: Closed-form thresholds checked against the oracle's search: name, varied
#: parameter, comparison builder, closed-form evaluator (of the draw and the
#: sanction base mode), sweep range, applicability guard (skips draws where
#: the margin is identically zero and the closed form vacuous).
_THRESHOLD_CASES = (
    (
        "seller_tax_threshold",
        "t_s",
        lambda d: Comparison(
            Agent.SELLER, Event.COMPLY, Event.EVADE_LT2, Scenario.TAX, AuditRegime(0.0)
        ),
        lambda d, mode: dominance.seller_tax_threshold(d.policy, d.te),
        (0.0, 0.999),
        lambda d: d.te.x_o != d.te.x_i,
    ),
    (
        "vat_rate_threshold",
        "v",
        lambda d: Comparison(
            Agent.SELLER, Event.COMPLY, Event.EVADE_LT2, Scenario.TAX, AuditRegime(0.0)
        ),
        lambda d, mode: dominance.vat_rate_threshold(d.policy, d.te),
        (0.0, 0.999),
        lambda d: d.te.x_i > 0.0,
    ),
    (
        "buyer_theta_threshold",
        "theta",
        lambda d: Comparison(
            Agent.BUYER,
            Event.COMPLY,
            Event.EVADE_LT1,
            Scenario.TAX_WITH_DEDUCTIONS,
            AuditRegime(0.37),
        ),
        lambda d, mode: dominance.buyer_theta_threshold(
            AuditRegime(0.37), d.policy, d.te, mode
        ),
        (0.0, 1.0),
        lambda d: d.te.x_o > 0.0,
    ),
    (
        "buyer_gamma_threshold",
        "gamma",
        lambda d: Comparison(
            Agent.BUYER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)
        ),
        lambda d, mode: dominance.buyer_gamma_threshold(d.policy, d.te, mode),
        (0.0, 1.0),
        lambda d: d.policy.v > 0.0 and d.te.x_o > 0.0,
    ),
    (
        "seller_gamma_threshold_ewt",
        "gamma",
        lambda d: Comparison(
            Agent.SELLER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)
        ),
        lambda d, mode: dominance.seller_gamma_threshold_ewt(d.policy, d.te),
        (0.0, 1.0),
        lambda d: d.policy.t_s > 0.0 and d.te.x_o > 0.0,
    ),
    (
        "seller_gamma_threshold_elt2",
        "gamma",
        lambda d: Comparison(
            Agent.SELLER, Event.COMPLY, Event.EVADE_LT2, Scenario.TAX, AuditRegime(0.0)
        ),
        lambda d, mode: dominance.seller_gamma_threshold_elt2(d.policy, d.te),
        (0.0, 1.0),
        lambda d: d.policy.t_s > 0.0 and d.te.x_o > 0.0,
    ),
)


def _check_best_responses(
    draw: ParameterDraw, mode: SanctionBaseMode, report: ValidationReport
) -> None:
    for scenario in _SCENARIOS:
        for regime in _REGIMES:
            for agent in Agent:
                expected = dominance.dominant_events(
                    agent, scenario, regime, draw.policy, draw.te, mode
                )
                got = oracle_best_response(agent, scenario, regime, draw, mode)
                report.best_response_checks += 1
                if expected != got:
                    report.failures.append(
                        f"best-response mismatch [{draw.tag}] {agent.value} "
                        f"{scenario.value} gamma={regime.gamma}: "
                        f"analytic={expected} oracle={got}"
                    )


def _check_thresholds(
    draw: ParameterDraw, mode: SanctionBaseMode, report: ValidationReport, atol: float
) -> None:
    for name, param, make_cmp, closed_form, (lo, hi), applies in _THRESHOLD_CASES:
        if not applies(draw):
            continue
        analytic = closed_form(draw, mode)
        if analytic.sentinel is not dominance.Sentinel.VALUE:
            continue
        if not lo <= analytic.value <= hi:
            continue  # crossing outside the admissible sweep range
        try:
            bisected = oracle_threshold(param, make_cmp(draw), draw, mode, lo, hi)
        except NonMonotoneError as exc:
            report.failures.append(f"non-monotone [{draw.tag}] {name}: {exc}")
            continue
        report.threshold_checks += 1
        if bisected.sentinel is not dominance.Sentinel.VALUE:
            # A flat margin near zero gain: accept if the analytic bound sits
            # at the edge of the range, otherwise report.
            if min(analytic.value - lo, hi - analytic.value) > atol:
                report.failures.append(
                    f"threshold sentinel mismatch [{draw.tag}] {name}: "
                    f"analytic={analytic.value} oracle={bisected.sentinel.value}"
                )
            continue
        deviation = abs(bisected.value - analytic.value)
        report.max_threshold_deviation = max(report.max_threshold_deviation, deviation)
        if deviation > atol:
            report.failures.append(
                f"threshold mismatch [{draw.tag}] {name}: "
                f"analytic={analytic.value} bisected={bisected.value}"
            )


def validate(
    seed: int,
    draws: int,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
    threshold_atol: float = 1e-6,
    thresholds_every: int = 1,
) -> ValidationReport:
    """Run the full oracle suite over a seeded draw batch.

    Best responses are compared on every draw; threshold searches (the
    expensive part) on every `thresholds_every`-th draw.
    """
    report = ValidationReport(seed=seed, draws=draws)
    for i, draw in enumerate(iter_draws(seed, draws)):
        _check_best_responses(draw, mode, report)
        if i % thresholds_every == 0:
            _check_thresholds(draw, mode, report, threshold_atol)
    return report
