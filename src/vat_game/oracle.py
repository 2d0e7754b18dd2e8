"""Brute-force validation of every closed-form result in the package.

`validate` checks the analytical layer against the payoff engine over a
seeded batch of random parameter draws. It works through the batch
BLOCK_DRAWS draws at a time, each block as arrays, so memory stays bounded
for any batch size.

Best responses. For each scenario and event, `expected_payoff` runs once,
with the audit rate gamma in {0, 0.37, 1} as a column and the draws as a
row. The events within the tie band of an agent's best payoff
(`dominance.tied_for_best`) are the engine's best responses. A rule built
from the closed forms must name the same tie set. It prices each evasion by
its expected gain over complying, which gains 0, under the same tie band:

* seller: g_lt1 = t_s*x_o - (1-t_s)*v*x_i, g_lt2 = t_s*(x_o-x_i) - v*x_i and
  g_wt = t_s*(x_o-x_i), each less the expected sanction
  gamma*x_o*t_s*(1+s_ys);
* buyer: every evasion saves the VAT bill x_o*v, or with deductions
  x_o*(v*delta - theta*(1+v*delta)), the discounted bill less the deduction
  it forgoes. It risks the expected sanction gamma*v*(1+s_v), levied on the
  evaded tax x_o*v in CORRECTED mode (Yitzhaki 1974) and on no base in
  PAPER_LITERAL mode (Allingham and Sandmo 1972);
* without taxes every event gains 0, so all four tie.

The rule never calls the engine, so a fault in either side shows.

Thresholds. Every margin the oracle searches is affine in its varied
parameter: each payoff is linear in each rate, and the audit mixture is
linear in gamma. One array call evaluates the margin at both ends of the
range and at its midpoint, for every draw. The root is the zero of the
secant through the two ends, where the margin changes sign. A midpoint off
that line by more than the tie band shows a margin that is not affine, and
is reported. The closed form of `dominance` must match the root within
the tolerance. `oracle_threshold` is the same search on one draw.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import dominance
from .dominance import (
    Agent,
    Sentinel,
    ThresholdResult,
    agent_payoff,
    compare,
    dominant_events,
    tie_band,
    tied_for_best,
)
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

#: Draws validated per array pass. It bounds memory; reports do not depend on it.
BLOCK_DRAWS = 4096
#: Largest gap between a closed-form threshold and its oracle root, absolute.
THRESHOLD_ATOL = 1e-6


class NonMonotoneError(RuntimeError):
    """A payoff margin is not affine in the varied parameter."""


@dataclass(frozen=True)
class ParameterDraw:
    policy: TaxPolicy
    te: TransactionEndowments
    tag: str  # seed-derived provenance, e.g. "seed42/17"


_POLICY_FIELDS = tuple(f.name for f in dataclasses.fields(TaxPolicy))
_TE_FIELDS = tuple(f.name for f in dataclasses.fields(TransactionEndowments))
#: The order in which one draw takes its uniforms.
_DRAW_ORDER = ("x_o", "t_s", "t_b", "v", "delta", "theta", "s_v", "s_ys", "x_i", "y_s", "y_b")


def _log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # Python's power, one element at a time: numpy's differs from it in the
    # last bit on about one draw in seven.
    return np.array([10.0 ** x for x in (lo + (hi - lo) * u).tolist()])


def _draw_block(
    rng: np.random.Generator, n: int
) -> tuple[SimpleNamespace, SimpleNamespace]:
    """n admissible random parameter sets, as a policy view and a te view.

    Each field of a view is an array with one element per draw. Rates are
    uniform on [0, 0.6]; delta, theta and the sanctions on [0, 1]; x_o is
    log-uniform on [10, 1e5], x_i uniform on [0, x_o] and the incomes
    log-uniform on [1e3, 1e6]. That is wide enough to cover all worked
    examples with margin. All uniforms come from one rng.random((n, 11))
    call, scaled as rng.uniform(lo, hi) scales them, lo + (hi - lo)*u, so
    the draws are those of one rng.uniform call per parameter in _DRAW_ORDER.
    """
    u = dict(zip(_DRAW_ORDER, rng.random((n, len(_DRAW_ORDER))).T))
    x_o = _log_uniform(u["x_o"], 1.0, 5.0)
    policy = SimpleNamespace(
        t_s=0.6 * u["t_s"],
        t_b=0.6 * u["t_b"],
        v=0.6 * u["v"],
        delta=u["delta"],
        theta=u["theta"],
        s_v=u["s_v"],
        s_ys=u["s_ys"],
    )
    te = SimpleNamespace(
        x_o=x_o,
        x_i=x_o * u["x_i"],
        y_s=_log_uniform(u["y_s"], 3.0, 6.0),
        y_b=_log_uniform(u["y_b"], 3.0, 6.0),
    )
    return policy, te


def _blocks(
    seed: int, count: int
) -> Iterator[tuple[int, SimpleNamespace, SimpleNamespace]]:
    """(index of the first draw, policy view, te view) per block of draws."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, BLOCK_DRAWS):
        yield (start, *_draw_block(rng, min(BLOCK_DRAWS, count - start)))


def _parameter_draws(
    policy: SimpleNamespace, te: SimpleNamespace, seed: int, start: int
) -> list[ParameterDraw]:
    """A block's draws as validated parameter objects, tagged by index."""
    policies = zip(*(getattr(policy, name).tolist() for name in _POLICY_FIELDS))
    tes = zip(*(getattr(te, name).tolist() for name in _TE_FIELDS))
    return [
        ParameterDraw(TaxPolicy(*p), TransactionEndowments(*t), f"seed{seed}/{start + k}")
        for k, (p, t) in enumerate(zip(policies, tes))
    ]


def iter_draws(seed: int, count: int) -> Iterator[ParameterDraw]:
    """Deterministic draw sequence: same seed, same draws, any parallelism."""
    for start, policy, te in _blocks(seed, count):
        yield from _parameter_draws(policy, te, seed, start)


def oracle_best_response(
    agent: Agent,
    scenario: Scenario,
    regime: AuditRegime,
    draw: ParameterDraw,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> tuple[Event, ...]:
    """`dominance.dominant_events` on one draw.

    `validate` takes the same argmax on arrays of draws.
    """
    return dominant_events(agent, scenario, regime, draw.policy, draw.te, mode)


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

Margin = Callable[[np.ndarray], np.ndarray]


def _margin_fn(
    varied_parameter: str,
    comparison: Comparison,
    policy: TaxPolicy | SimpleNamespace,
    te: TransactionEndowments | SimpleNamespace,
    mode: SanctionBaseMode,
) -> Margin:
    """The comparison's `dominance.compare` margin as a function of one parameter.

    The margin takes a float or an ndarray of parameter values. `policy` and
    `te` may be views whose fields are arrays with one element per draw; the
    parameter values broadcast against them. Evaluation runs on a plain view
    with the varied field replaced and validates nothing.
    """
    owner = _OWNER[varied_parameter]
    inputs = {"policy": policy, "te": te, "regime": comparison.regime}
    fields = vars(inputs[owner])
    head = (comparison.agent, comparison.first, comparison.second, comparison.scenario)

    def margin(x):
        view = {**inputs, owner: SimpleNamespace(**{**fields, varied_parameter: x})}
        return compare(*head, view["regime"], view["policy"], view["te"], mode)

    return margin


class _Roots(NamedTuple):
    """Per draw: where an affine margin crosses zero, and how it was found."""

    value: np.ndarray  # the root; NaN where the margin keeps one sign
    sign: np.ndarray  # that sign, +1 or -1; 0 where there is a root
    defect: np.ndarray  # distance of the midpoint from the secant


def _affine_roots(margin: Margin, lo: float, hi: float) -> _Roots:
    """Where a margin affine in its parameter changes sign on [lo, hi].

    One call evaluates the margin at lo, the midpoint and hi, for every
    draw. The root is the secant's zero where the margin changes sign
    strictly, and lo where it is zero at both ends. Elsewhere the margin
    keeps one sign over the range, a zero at one end included.
    """
    xs = np.array([[lo], [0.5 * (lo + hi)], [hi]])
    m = np.asarray(margin(xs), dtype=float)
    m_lo, m_mid, m_hi = np.broadcast_to(m, np.broadcast_shapes(m.shape, (3, 1)))
    s_lo, s_hi = np.sign(m_lo), np.sign(m_hi)
    crossing = s_lo * s_hi < 0
    sign = np.where(crossing, 0.0, s_lo + s_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = lo + (hi - lo) * (m_lo / (m_lo - m_hi))
    value = np.where(crossing, secant, np.where(sign == 0.0, lo, np.nan))
    return _Roots(value, sign, np.abs(m_mid - 0.5 * (m_lo + m_hi)))


def _threshold_result(value: float, sign: float) -> ThresholdResult:
    if sign > 0:
        return ThresholdResult.always_satisfied()
    if sign < 0:
        return ThresholdResult.never_satisfied()
    return ThresholdResult.of(float(value))


def oracle_threshold(
    varied_parameter: str,
    comparison: Comparison,
    draw: ParameterDraw,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
    lo: float = 0.0,
    hi: float = 1.0,
) -> ThresholdResult:
    """Locate the margin's sign change in [lo, hi].

    The varied parameter is validated once, at `lo` and `hi`, by its
    dataclass; every admissible range is an interval, so every point between
    them is admissible too. The margin must be affine over the range: a
    midpoint off the secant by more than the tie band raises
    NonMonotoneError. With no sign change, the constant sign is reported as
    an always/never sentinel on the first-preferred condition.
    """
    owner = _OWNER.get(varied_parameter)
    if owner is None:
        raise ValueError(f"unknown parameter {varied_parameter!r}")
    inputs = {"policy": draw.policy, "te": draw.te, "regime": comparison.regime}
    for x in (lo, hi):
        dataclasses.replace(inputs[owner], **{varied_parameter: x})
    margin = _margin_fn(varied_parameter, comparison, draw.policy, draw.te, mode)
    (value,), (sign,), (defect,) = _affine_roots(margin, lo, hi)
    if defect > tie_band(draw.te):
        raise NonMonotoneError(
            f"margin in {varied_parameter!r} for {comparison} is not affine on "
            f"[{lo}, {hi}]: the midpoint is {defect:.3e} off the secant"
        )
    return _threshold_result(value, sign)


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


#: Audit rates of the best-response checks.
_GAMMAS = (0.0, 0.37, 1.0)
_SCENARIOS = (Scenario.NO_TAXES, Scenario.TAX, Scenario.TAX_WITH_DEDUCTIONS)
#: Best-response checks per draw: scenarios x audit rates x agents.
_BEST_RESPONSE_CASES = len(_SCENARIOS) * len(_GAMMAS) * len(Agent)


class _ThresholdCase(NamedTuple):
    """A closed-form threshold and the margin whose root it must be.

    `applies` skips draws where the margin is identically zero and the
    closed form vacuous. The closed form takes the draw and the sanction
    base mode.
    """

    name: str
    varied: str
    comparison: Comparison
    closed_form: Callable[[ParameterDraw, SanctionBaseMode], ThresholdResult]
    lo: float
    hi: float
    applies: Callable[[ParameterDraw], bool]


_SELLER_COMPLY_VS_LT2 = Comparison(
    Agent.SELLER, Event.COMPLY, Event.EVADE_LT2, Scenario.TAX, AuditRegime(0.0)
)

#: Closed-form thresholds checked against the oracle's root search.
_THRESHOLD_CASES = (
    _ThresholdCase(
        "seller_tax_threshold",
        "t_s",
        _SELLER_COMPLY_VS_LT2,
        lambda d, mode: dominance.seller_tax_threshold(d.policy, d.te),
        0.0,
        0.999,
        lambda d: d.te.x_o != d.te.x_i,
    ),
    _ThresholdCase(
        "vat_rate_threshold",
        "v",
        _SELLER_COMPLY_VS_LT2,
        lambda d, mode: dominance.vat_rate_threshold(d.policy, d.te),
        0.0,
        0.999,
        lambda d: d.te.x_i > 0.0,
    ),
    _ThresholdCase(
        "buyer_theta_threshold",
        "theta",
        Comparison(
            Agent.BUYER,
            Event.COMPLY,
            Event.EVADE_LT1,
            Scenario.TAX_WITH_DEDUCTIONS,
            AuditRegime(0.37),
        ),
        lambda d, mode: dominance.buyer_theta_threshold(
            AuditRegime(0.37), d.policy, d.te, mode
        ),
        0.0,
        1.0,
        lambda d: d.te.x_o > 0.0,
    ),
    _ThresholdCase(
        "buyer_gamma_threshold",
        "gamma",
        Comparison(Agent.BUYER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)),
        lambda d, mode: dominance.buyer_gamma_threshold(d.policy, d.te, mode),
        0.0,
        1.0,
        lambda d: d.policy.v > 0.0 and d.te.x_o > 0.0,
    ),
    _ThresholdCase(
        "seller_gamma_threshold_ewt",
        "gamma",
        Comparison(Agent.SELLER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)),
        lambda d, mode: dominance.seller_gamma_threshold_ewt(d.policy, d.te),
        0.0,
        1.0,
        lambda d: d.policy.t_s > 0.0 and d.te.x_o > 0.0,
    ),
    _ThresholdCase(
        "seller_gamma_threshold_elt2",
        "gamma",
        _SELLER_COMPLY_VS_LT2,
        lambda d, mode: dominance.seller_gamma_threshold_elt2(d.policy, d.te),
        0.0,
        1.0,
        lambda d: d.policy.t_s > 0.0 and d.te.x_o > 0.0,
    ),
)


def _rule_gains(agent, scenario, gamma, policy, te, mode) -> list:
    """Each canonical event's expected gain over complying, by the closed forms.

    See the module docstring. Fields of `policy` and `te` and `gamma` may be
    arrays that broadcast against each other.
    """
    zero = np.zeros(np.broadcast_shapes(np.shape(gamma), np.shape(te.x_o)))
    if scenario is Scenario.NO_TAXES:
        return [zero] * len(CANONICAL_EVENTS)
    t_s, v, x_o, x_i = policy.t_s, policy.v, te.x_o, te.x_i
    if agent is Agent.SELLER:
        sanction = gamma * x_o * t_s * (1.0 + policy.s_ys)
        g_wt = t_s * (x_o - x_i)
        g_lt1 = t_s * x_o - (1.0 - t_s) * v * x_i
        return [zero, g_lt1 - sanction, g_wt - v * x_i - sanction, g_wt - sanction]
    sanction = gamma * v * (1.0 + policy.s_v)
    if mode is SanctionBaseMode.CORRECTED:
        sanction = sanction * x_o
    if scenario is Scenario.TAX:
        saved = x_o * v
    else:
        dv = policy.delta * v
        saved = x_o * (dv - policy.theta * (1.0 + dv))
    gain = saved - sanction
    return [zero, gain, gain, gain]


def _events(tied) -> list[str]:
    return [e.value for e, t in zip(CANONICAL_EVENTS, tied) if t]


def _check_best_responses(policy, te, band, draws, mode) -> list[tuple[int, int, str]]:
    """The engine's argmax against the closed-form rule, 18 cases per draw.

    Returns (draw in the block, check rank, message) per mismatch.
    """
    gammas = np.array(_GAMMAS).reshape(-1, 1)
    regime = SimpleNamespace(gamma=gammas)
    failures = []
    for s, scenario in enumerate(_SCENARIOS):
        payoffs = [
            expected_payoff(scenario, regime, event, policy, te, mode)
            for event in CANONICAL_EVENTS
        ]
        for a, agent in enumerate(Agent):
            engine = tied_for_best(
                np.broadcast_arrays(*(agent_payoff(agent, pv) for pv in payoffs)), band
            )
            rule = tied_for_best(
                np.broadcast_arrays(*_rule_gains(agent, scenario, gammas, policy, te, mode)),
                band,
            )
            for g, k in zip(*np.nonzero((engine != rule).any(axis=0))):
                failures.append(
                    (
                        k,
                        (s * len(_GAMMAS) + g) * len(Agent) + a,
                        f"best-response mismatch [{draws[k].tag}] {agent.value} "
                        f"{scenario.value} gamma={_GAMMAS[g]}: analytic="
                        f"{_events(rule[:, g, k])} oracle={_events(engine[:, g, k])}",
                    )
                )
    return failures


def _check_thresholds(policy, te, band, draws, mode, report) -> list[tuple[int, int, str]]:
    """Each closed form against the affine root of its margin, on every draw.

    Adds the checks and the largest deviation to `report`; returns
    (draw in the block, check rank, message) per failure.
    """
    failures = []
    for rank, case in enumerate(_THRESHOLD_CASES, start=_BEST_RESPONSE_CASES):
        lo, hi = case.lo, case.hi
        analytic = np.full(len(draws), np.nan)
        for k, draw in enumerate(draws):
            if case.applies(draw):
                result = case.closed_form(draw, mode)
                if result.sentinel is Sentinel.VALUE and lo <= result.value <= hi:
                    analytic[k] = result.value
        checked = ~np.isnan(analytic)
        if not checked.any():
            continue
        roots = _affine_roots(
            _margin_fn(case.varied, case.comparison, policy, te, mode), lo, hi
        )
        affine = roots.defect <= band
        counted = checked & affine
        report.threshold_checks += int(np.count_nonzero(counted))
        at_root = counted & (roots.sign == 0.0)
        deviation = np.abs(roots.value - analytic)
        if at_root.any():
            report.max_threshold_deviation = max(
                report.max_threshold_deviation, float(deviation[at_root].max())
            )
        # No crossing: accept a closed form at the edge of the range, where
        # the margin is flat near zero gain; report any other.
        inside = np.minimum(analytic - lo, hi - analytic) > THRESHOLD_ATOL
        sentinel = counted & (roots.sign != 0.0) & inside
        missed = at_root & (deviation > THRESHOLD_ATOL)
        for k in np.flatnonzero((checked & ~affine) | sentinel | missed):
            where = f"[{draws[k].tag}] {case.name}:"
            if not affine[k]:
                message = (
                    f"non-affine margin {where} the midpoint is "
                    f"{roots.defect[k]:.3e} off the secant"
                )
            elif sentinel[k]:
                oracle = _threshold_result(roots.value[k], roots.sign[k]).sentinel.value
                message = (
                    f"threshold sentinel mismatch {where} "
                    f"analytic={float(analytic[k])} oracle={oracle}"
                )
            else:
                message = (
                    f"threshold mismatch {where} "
                    f"analytic={float(analytic[k])} oracle={float(roots.value[k])}"
                )
            failures.append((k, rank, message))
    return failures


def validate(
    seed: int,
    draws: int,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> ValidationReport:
    """Run the full oracle suite over a seeded draw batch.

    Best responses and thresholds are compared on every draw. Failures are
    listed in draw order, each draw's best responses before its thresholds.
    """
    report = ValidationReport(seed=seed, draws=draws)
    found = []  # (draw, check rank, message)
    for start, policy, te in _blocks(seed, draws):
        block = _parameter_draws(policy, te, seed, start)
        band = tie_band(te)
        failures = _check_best_responses(policy, te, band, block, mode)
        report.best_response_checks += _BEST_RESPONSE_CASES * len(block)
        failures += _check_thresholds(policy, te, band, block, mode, report)
        found += [(start + int(k), rank, message) for k, rank, message in failures]
    report.failures = [message for _, _, message in sorted(found)]
    return report
