"""Command-line front end.

Subcommands: payoffs, thresholds, region, appendix, validate.
Exit codes: 0 success, 1 usage/config error, 2 reproduction or validation
mismatch. All numeric output is locale-independent fixed point.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import sys
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from . import coalition, dominance, report
from .coalition import FrontierUndefinedError
from .config import ConfigError, build_parameters
from .dominance import Sentinel, ThresholdResult
from .model import (
    AuditRegime,
    Event,
    SanctionBaseMode,
    Scenario,
    TaxPolicy,
    TransactionEndowments,
    UndefinedEventError,
    conservation_residual,
    defined_events,
    expected_payoff,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

#: Largest (theta, gamma) raster `region` builds, in cells.
MAX_REGION_CELLS = 1001 * 1001
#: Largest `validate --draws`: about 35 s on one core at 10 million draws.
MAX_DRAWS = 10_000_000
#: Largest --precision. A double holds about 17 significant digits, so more
#: decimals only print its binary expansion, and each one adds a byte per number.
MAX_PRECISION = 20

_SCENARIOS = {s.value: s for s in Scenario}
_EVENTS = {e.value: e for e in Event}
_MODES = {m.value: m for m in SanctionBaseMode}


class _Parser(argparse.ArgumentParser):
    # argparse prints the usage and exits 2 on usage errors by default; the
    # CLI contract wants one line and exit 1.
    def error(self, message: str) -> None:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _regime_name(gamma: float) -> str:
    if gamma == 0.0:
        return "no-audit"
    if gamma == 1.0:
        return "certain-audit"
    return "bayesian"


def _emit(rows: list[dict[str, object]], fmt: str, precision: int, out: str | None) -> None:
    if fmt == "json":
        payload = [
            {
                k: (round(v, precision) if isinstance(v, float) else v)
                for k, v in row.items()
            }
            for row in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        if not rows:
            text = ""
        else:
            header = ",".join(rows[0].keys())
            lines = [header]
            for row in rows:
                lines.append(
                    ",".join(
                        _fmt(v, precision) if isinstance(v, float) else str(v)
                        for v in row.values()
                    )
                )
            text = "\n".join(lines) + "\n"
    _write(text, out)


@contextlib.contextmanager
def _opened(out: str | None) -> Iterator[TextIO]:
    """Standard output, or the file `out` opened once for writing."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as f:
            yield f


def _write(text: str, out: str | None) -> None:
    with _opened(out) as f:
        f.write(text)


def _threshold_cell(result: ThresholdResult) -> object:
    if result.sentinel is Sentinel.VALUE:
        return float(result.value)
    return result.sentinel.value


# ---------------------------------------------------------------- payoffs


def cmd_payoffs(args: argparse.Namespace) -> int:
    policy, te = build_parameters(args.preset, args.config, args.set)
    mode = _MODES[args.mode]
    scenario = _SCENARIOS[args.scenario]
    if args.gamma is not None and args.regime != "bayesian":
        raise ConfigError(f"--gamma applies only to --regime bayesian, not {args.regime}")
    gamma = {"no-audit": 0.0, "certain-audit": 1.0, "bayesian": args.gamma}[args.regime]
    if gamma is None:
        raise ConfigError("--gamma is required with --regime bayesian")
    try:
        regime = AuditRegime(gamma)
    except ValueError as exc:
        raise ConfigError(f"--gamma: {exc}") from exc

    if args.event is not None:
        events: Sequence[Event] = (_EVENTS[args.event],)
    else:
        events = defined_events(scenario, audited=gamma > 0.0)

    rows = []
    for event in events:
        pv = expected_payoff(scenario, regime, event, policy, te, mode)
        rows.append(
            {
                "scenario": scenario.value,
                "regime": _regime_name(gamma),
                "gamma": float(gamma),
                "event": event.value,
                "y_buyer": pv.buyer,
                "y_seller": pv.seller,
                "y_gov": pv.government,
                "total": pv.total(),
                "residual": conservation_residual(pv, te),
            }
        )
    _emit(rows, args.format, args.precision, args.out)
    return EXIT_OK


# -------------------------------------------------------------- thresholds


def _frontier_parameters(args: argparse.Namespace) -> tuple[TaxPolicy, TransactionEndowments]:
    """Parameters for a command that prints compliance frontiers."""
    policy, te = build_parameters(args.preset, args.config, args.set)
    if te.x_o == 0.0:
        raise ConfigError("x_o must be positive: the compliance frontiers divide by it")
    return policy, te


def cmd_thresholds(args: argparse.Namespace) -> int:
    policy, te = _frontier_parameters(args)
    mode = _MODES[args.mode]

    rows: list[dict[str, object]] = []

    def scalar(name: str, tag: str, result: ThresholdResult) -> None:
        rows.append(
            {
                "name": name,
                "tag": tag,
                "value": _threshold_cell(result),
                "slope": "",
                "feasible": str(result.feasible_in_unit_interval).lower(),
                "mode": mode.value,
            }
        )

    scalar("seller_tax_threshold", "eq5", dominance.seller_tax_threshold(policy, te))
    scalar("vat_rate_threshold", "eq7", dominance.vat_rate_threshold(policy, te))
    scalar(
        "buyer_theta_no_audit",
        "eq9",
        dominance.buyer_theta_threshold(AuditRegime(0.0), policy, te, mode),
    )
    scalar(
        "buyer_theta_certain_audit",
        "prop11",
        dominance.buyer_theta_threshold(AuditRegime(1.0), policy, te, mode),
    )
    scalar(
        "buyer_gamma_threshold",
        "result6",
        dominance.buyer_gamma_threshold(policy, te, mode),
    )
    scalar(
        "seller_gamma_threshold_ewt",
        "result7",
        dominance.seller_gamma_threshold_ewt(policy, te),
    )
    scalar(
        "seller_gamma_threshold_elt2",
        "eq14",
        dominance.seller_gamma_threshold_elt2(policy, te),
    )

    published_tags = {
        Event.EVADE_LT1: ("theta1", "eq17"),
        Event.EVADE_LT2: ("theta2", "eq18"),
        Event.EVADE_WT: ("theta3", "eq19"),
    }
    for variant in coalition.FRONTIER_VARIANTS:
        name, tag = published_tags[variant]
        line = coalition.published_theta_frontier(variant, policy, te, mode)
        rows.append(
            {
                "name": name,
                "tag": tag,
                "value": line.intercept,
                "slope": line.slope,
                "feasible": str(0.0 <= line.intercept <= 1.0).lower(),
                "mode": mode.value,
            }
        )
        derived = coalition.theta_frontier(variant, policy, te, mode)
        rows.append(
            {
                "name": f"frontier_{variant.value.removeprefix('evade-')}",
                "tag": "payoff-derived",
                "value": derived.intercept,
                "slope": derived.slope,
                "feasible": str(0.0 <= derived.intercept <= 1.0).lower(),
                "mode": mode.value,
            }
        )
        gamma0 = coalition.gamma_for_compliance_without_deductions(
            variant, policy, te, mode
        )
        scalar(
            f"gamma_at_theta0_{variant.value.removeprefix('evade-')}",
            "remark19",
            gamma0,
        )

    # An overflowed row prints as inf, and as Infinity, which is not JSON.
    for row in rows:
        for key in ("value", "slope"):
            if isinstance(row[key], float) and not math.isfinite(row[key]):
                raise ConfigError(f"{row['name']} ({row['tag']}): {key} {row[key]} is not finite")
    _emit(rows, args.format, args.precision, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ region


#: (best_event, complies) cell text per index into COALITION_EVENTS.
_REGION_LABELS = [
    (event.value, str(event is Event.COMPLY).lower()) for event in coalition.COALITION_EVENTS
]


def _axis_size(lo: float, hi: float, step: float, name: str) -> int:
    """Validate one raster axis and count its points, without building it."""
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ConfigError(f"{name} min, max and step must be finite")
    if step <= 0.0:
        raise ConfigError(f"{name} step must be positive")
    if not 0.0 <= lo <= hi <= 1.0:
        raise ConfigError(f"{name} axis must satisfy 0 <= min <= max <= 1")
    return math.floor(min((hi - lo + 1e-12) / step, MAX_REGION_CELLS)) + 1


def _axis(lo: float, hi: float, step: float) -> list[float]:
    values = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + 1e-12:
            break
        values.append(min(x, hi))
        k += 1
    return values


def cmd_region(args: argparse.Namespace) -> int:
    policy, te = _frontier_parameters(args)
    mode = _MODES[args.mode]
    theta_axis = (args.theta_min, args.theta_max, args.theta_step)
    gamma_axis = (args.gamma_min, args.gamma_max, args.gamma_step)
    if _axis_size(*theta_axis, "theta") * _axis_size(*gamma_axis, "gamma") > MAX_REGION_CELLS:
        raise ConfigError(
            f"region grid exceeds {MAX_REGION_CELLS} cells (1001 x 1001); use larger steps"
        )
    thetas, gammas = _axis(*theta_axis), _axis(*gamma_axis)

    winners = coalition.coalition_best_events_grid(thetas, gammas, policy, te, mode)
    # The frontier lines can fail on degenerate parameters, so they are
    # computed before the raster is written.
    frontier_rows = [
        {
            "variant": line.variant.value.removeprefix("evade-"),
            "intercept": line.intercept,
            "slope": line.slope,
            "mode": mode.value,
        }
        for line in (
            coalition.theta_frontier(v, policy, te, mode)
            for v in coalition.FRONTIER_VARIANTS
        )
    ]
    rows = _region_rows(thetas, gammas, winners.tolist(), args.format, args.precision)
    with _opened(args.out) as f:
        f.writelines(rows)
    companion = _companion_path(args.out)
    _emit(frontier_rows, args.format, args.precision, companion)
    return EXIT_OK


def _region_rows(
    thetas: list[float], gammas: list[float], winners: list[list[int]], fmt: str, precision: int
) -> Iterator[str]:
    """The raster as `_emit` would write it from one dict per cell, row by row.

    A cell is its theta's head joined with its gamma's tail for the joint
    strategy that wins it. Each gamma is rendered once per strategy and each
    theta once per row, so no cell becomes a dict or formats a number, and
    only one row of text is held at a time.
    """
    if fmt == "csv":
        start, sep, end = "theta,gamma,best_event,complies\n", "\n", "\n"
        heads = [f"{_fmt(theta, precision)}," for theta in thetas]
        tails = [
            [f"{_fmt(gamma, precision)},{event},{complies}" for event, complies in _REGION_LABELS]
            for gamma in gammas
        ]
    else:  # json.dumps(rows, indent=2) with every float rounded to precision
        start, sep, end = "[\n", ",\n", "\n]\n"
        heads = [f'  {{\n    "theta": {json.dumps(round(theta, precision))},' for theta in thetas]
        tails = [
            [
                f'\n    "gamma": {json.dumps(round(gamma, precision))},'
                f'\n    "best_event": {json.dumps(event)},'
                f'\n    "complies": {json.dumps(complies)}\n  }}'
                for event, complies in _REGION_LABELS
            ]
            for gamma in gammas
        ]
    yield start
    for i, (head, row) in enumerate(zip(heads, winners)):
        cells = (sep + head).join(map(operator.getitem, tails, row))
        yield (sep if i else "") + head + cells  # theta outer, gamma inner
    yield end


def _companion_path(out: str | None) -> str | None:
    if out is None:
        return None
    path = Path(out)
    return str(path.with_name(path.stem + ".frontiers" + path.suffix))


# ---------------------------------------------------------------- appendix


def cmd_appendix(args: argparse.Namespace) -> int:
    if args.preset is None and args.config is None and not args.set:
        policy, te = build_parameters("appendix", None, None)
    else:
        policy, te = build_parameters(args.preset, args.config, args.set)

    table = report.compute_appendix_table(policy, te)
    try:
        mismatches = report.diff_appendix_table(table, tolerance=args.tolerance)
    except ValueError as exc:
        raise ConfigError(f"--tolerance: {exc}") from exc
    rows = [
        {"row": row, **{col: table[row][col] for col in report.APPENDIX_COLUMNS}}
        for row in report.APPENDIX_ROWS
    ]
    _emit(rows, args.format, args.precision, args.out)

    if mismatches:
        for m in mismatches:
            print(
                f"MISMATCH {m.row}/{m.column}: computed {m.computed:.2f} "
                f"vs published {m.published:.2f} (diff {m.deviation:+.2f})",
                file=sys.stderr,
            )
        return EXIT_MISMATCH
    print("appendix reproduction: all cells match published values", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- validate


def cmd_validate(args: argparse.Namespace) -> int:
    if not 1 <= args.draws <= MAX_DRAWS:
        raise ConfigError(f"--draws must be between 1 and {MAX_DRAWS}")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    from . import oracle  # here, so that the other commands start without numpy

    rep = oracle.validate(seed=args.seed, draws=args.draws, mode=_MODES[args.mode])
    for line in rep.summary_lines():
        print(line)
    return EXIT_OK if rep.ok else EXIT_MISMATCH


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument(
        "--mode", choices=list(_MODES), default=SanctionBaseMode.CORRECTED.value
    )
    common = argparse.ArgumentParser(add_help=False, parents=[mode])
    common.add_argument("--preset", choices=["appendix", "section6"], default=None)
    common.add_argument("--config", metavar="FILE", default=None)
    common.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override a single parameter (highest precedence, repeatable)",
    )
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--precision", type=int, default=6, metavar="N")
    common.add_argument("--out", metavar="PATH", default=None)

    parser = _Parser(prog="vat-game", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("payoffs", parents=[common], help="payoff table per event")
    p.add_argument("--scenario", choices=list(_SCENARIOS), default=Scenario.TAX.value)
    p.add_argument(
        "--regime", choices=["no-audit", "certain-audit", "bayesian"], default="no-audit"
    )
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--event", choices=list(_EVENTS), default=None)
    p.set_defaults(func=cmd_payoffs)

    p = sub.add_parser("thresholds", parents=[common], help="all closed-form thresholds")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("region", parents=[common], help="(theta, gamma) compliance raster")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=1.0)
    p.add_argument("--theta-step", type=float, default=0.01)
    p.add_argument("--gamma-min", type=float, default=0.0)
    p.add_argument("--gamma-max", type=float, default=1.0)
    p.add_argument("--gamma-step", type=float, default=0.01)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("appendix", parents=[common], help="reproduce the worked example")
    p.add_argument("--tolerance", type=float, default=0.5, metavar="CURRENCY")
    p.set_defaults(func=cmd_appendix)

    # validate draws its own parameters and prints a fixed report, so it
    # takes no parameter or output option.
    p = sub.add_parser("validate", parents=[mode], help="brute-force oracle run")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--draws", type=int, default=10_000)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if not 0 <= getattr(args, "precision", 0) <= MAX_PRECISION:
            raise ConfigError(f"--precision must be between 0 and {MAX_PRECISION}")
        return args.func(args)
    except (ConfigError, UndefinedEventError, FrontierUndefinedError, OSError) as exc:
        print(f"vat-game: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
