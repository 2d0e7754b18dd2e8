"""Brute-force validation of every closed-form result in the package.

`validate` checks the analytical layer against the payoff engine over a
seeded batch of random parameter draws. It works through the batch
BLOCK_DRAWS draws at a time, each block as arrays, so memory stays bounded
for any batch size.

Payoff tables. Per block, `expected_payoff` runs once per scenario and
canonical event, twelve calls in all, on a stacked view: each field that
varies is a column with one row per parameter point, against the draws as a
row. A scenario's rows are the audit rates of the best responses, then the
points each threshold margin is read at. Both checks read every payoff
from these tables.

Best responses. The table rows at audit rates gamma in {0, 0.37, 1} price
each event. The events within the tie band of an agent's best payoff
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
linear in gamma. A case's margin, first - second as `dominance.compare`
takes it, is read from its scenario's table at both ends of its range and
at the midpoint. The audit-rate cases add one row, gamma = 0.5, and share
the ends gamma = 0 and 1 with the best responses; t_s and v (at gamma = 0)
and theta (at gamma = 0.37) add three rows each. One secant pass then serves
every case and draw. The root is the zero of the secant through the two
ends, where the margin changes sign. A midpoint off that line by more than
the tie band shows a margin that is not affine, and is reported. The
closed form of `dominance`, evaluated once per case on the block's arrays,
must match the root within the tolerance. `oracle_threshold` runs the same
secant on one draw's `compare` margin.
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
    PayoffVector,
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


def _tag(seed: int, index: int) -> str:
    return f"seed{seed}/{index}"


def iter_draws(seed: int, count: int) -> Iterator[ParameterDraw]:
    """Deterministic draw sequence: same seed, same draws, any parallelism.

    Each draw is a validated parameter object, tagged by its index.
    """
    for start, policy, te in _blocks(seed, count):
        policies = zip(*(getattr(policy, name).tolist() for name in _POLICY_FIELDS))
        tes = zip(*(getattr(te, name).tolist() for name in _TE_FIELDS))
        for k, (p, t) in enumerate(zip(policies, tes)):
            yield ParameterDraw(TaxPolicy(*p), TransactionEndowments(*t), _tag(seed, start + k))


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


def _affine_roots(margins, lo, hi) -> _Roots:
    """Where margins affine in their parameter change sign on [lo, hi].

    `margins` holds the values at lo, the midpoint and hi along its first
    axis; `lo` and `hi` broadcast against each of the three. The root is the
    secant's zero where the margin changes sign strictly, and lo where it is
    zero at both ends. Elsewhere the margin keeps one sign over the range, a
    zero at one end included.
    """
    m_lo, m_mid, m_hi = margins
    s_lo, s_hi = np.sign(m_lo), np.sign(m_hi)
    crossing = s_lo * s_hi < 0
    sign = np.where(crossing, 0.0, s_lo + s_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = lo + (hi - lo) * (m_lo / (m_lo - m_hi))
    value = np.where(crossing, secant, np.where(sign == 0.0, lo, np.nan))
    return _Roots(value, sign, np.abs(m_mid - 0.5 * (m_lo + m_hi)))


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
    m = np.asarray(margin(np.array([[lo], [0.5 * (lo + hi)], [hi]])), dtype=float)
    m = np.broadcast_to(m, np.broadcast_shapes(m.shape, (3, 1)))
    (value,), (sign,), (defect,) = _affine_roots(m, lo, hi)
    if defect > tie_band(draw.te):
        raise NonMonotoneError(
            f"margin in {varied_parameter!r} for {comparison} is not affine on "
            f"[{lo}, {hi}]: the midpoint is {defect:.3e} off the secant"
        )
    return ThresholdResult(float(value), always_satisfied=sign > 0, never_satisfied=sign < 0)


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

    `closed_form` gives the `dominance.ThresholdResult` of a block's policy
    and te views in a sanction base mode. `applies` masks out the draws where
    the margin is identically zero and the closed form vacuous.
    """

    name: str
    varied: str
    comparison: Comparison
    closed_form: Callable[[SimpleNamespace, SimpleNamespace, SanctionBaseMode], ThresholdResult]
    lo: float
    hi: float
    applies: Callable[[SimpleNamespace, SimpleNamespace], np.ndarray]


_SELLER_COMPLY_VS_LT2 = Comparison(
    Agent.SELLER, Event.COMPLY, Event.EVADE_LT2, Scenario.TAX, AuditRegime(0.0)
)
#: Audit rate of the deduction-share case.
_THETA_REGIME = AuditRegime(0.37)

#: Closed-form thresholds checked against the oracle's root search. The
#: closed forms are looked up when called, so a test can replace one.
_THRESHOLD_CASES = (
    _ThresholdCase(
        "seller_tax_threshold",
        "t_s",
        _SELLER_COMPLY_VS_LT2,
        lambda policy, te, mode: dominance.seller_tax_threshold(policy, te),
        0.0,
        0.999,
        lambda policy, te: te.x_o != te.x_i,
    ),
    _ThresholdCase(
        "vat_rate_threshold",
        "v",
        _SELLER_COMPLY_VS_LT2,
        lambda policy, te, mode: dominance.vat_rate_threshold(policy, te),
        0.0,
        0.999,
        lambda policy, te: te.x_i > 0.0,
    ),
    _ThresholdCase(
        "buyer_theta_threshold",
        "theta",
        Comparison(
            Agent.BUYER,
            Event.COMPLY,
            Event.EVADE_LT1,
            Scenario.TAX_WITH_DEDUCTIONS,
            _THETA_REGIME,
        ),
        lambda policy, te, mode: dominance.buyer_theta_threshold(_THETA_REGIME, policy, te, mode),
        0.0,
        1.0,
        lambda policy, te: te.x_o > 0.0,
    ),
    _ThresholdCase(
        "buyer_gamma_threshold",
        "gamma",
        Comparison(Agent.BUYER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)),
        lambda policy, te, mode: dominance.buyer_gamma_threshold(policy, te, mode),
        0.0,
        1.0,
        lambda policy, te: (policy.v > 0.0) & (te.x_o > 0.0),
    ),
    _ThresholdCase(
        "seller_gamma_threshold_ewt",
        "gamma",
        Comparison(Agent.SELLER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)),
        lambda policy, te, mode: dominance.seller_gamma_threshold_ewt(policy, te),
        0.0,
        1.0,
        lambda policy, te: (policy.t_s > 0.0) & (te.x_o > 0.0),
    ),
    _ThresholdCase(
        "seller_gamma_threshold_elt2",
        "gamma",
        _SELLER_COMPLY_VS_LT2,
        lambda policy, te, mode: dominance.seller_gamma_threshold_elt2(policy, te),
        0.0,
        1.0,
        lambda policy, te: (policy.t_s > 0.0) & (te.x_o > 0.0),
    ),
)
_CASE_LO = np.array([[case.lo] for case in _THRESHOLD_CASES])
_CASE_HI = np.array([[case.hi] for case in _THRESHOLD_CASES])


class _Layout(NamedTuple):
    """The rows of one scenario's payoff table, as columns of parameter values."""

    gamma: np.ndarray  # the audit rate of every row
    policy: dict[str, tuple[np.ndarray, np.ndarray]]  # field -> (rows that set it, value)


def _layouts() -> tuple[dict[Scenario, _Layout], list[list[int]]]:
    """Each scenario's table layout, and each threshold case's rows in it.

    A row is a parameter point: an audit rate and at most one policy field.
    The first rows are the best responses' audit rates. A case adds the
    points at lo, the midpoint and hi of its range, at its comparison's audit
    rate, and shares a row that sets the same values.
    """
    rows = {scenario: [{"gamma": gamma} for gamma in _GAMMAS] for scenario in _SCENARIOS}
    case_rows = []
    for case in _THRESHOLD_CASES:
        table = rows[case.comparison.scenario]
        case_rows.append([])
        for x in (case.lo, 0.5 * (case.lo + case.hi), case.hi):
            point = {"gamma": case.comparison.regime.gamma, case.varied: x}
            if point not in table:
                table.append(point)
            case_rows[-1].append(table.index(point))

    def column(values) -> np.ndarray:
        return np.array(values).reshape(-1, 1)

    layouts = {
        scenario: _Layout(
            column([point["gamma"] for point in table]),
            {
                name: (
                    column([name in point for point in table]),
                    column([point.get(name, 0.0) for point in table]),
                )
                for name in _POLICY_FIELDS
                if any(name in point for point in table)
            },
        )
        for scenario, table in rows.items()
    }
    return layouts, case_rows


_LAYOUTS, _CASE_ROWS = _layouts()


def _payoff_table(scenario, policy, te, mode) -> dict[Event, PayoffVector]:
    """Each canonical event's expected payoffs, indexed [table row, draw]."""
    layout = _LAYOUTS[scenario]
    fields = dict(vars(policy))
    for name, (rows, x) in layout.policy.items():
        fields[name] = np.where(rows, x, fields[name])
    regime, rows_policy = SimpleNamespace(gamma=layout.gamma), SimpleNamespace(**fields)
    return {
        event: expected_payoff(scenario, regime, event, rows_policy, te, mode)
        for event in CANONICAL_EVENTS
    }


def _rule_gains(agent, scenario, gamma, policy, te, mode) -> list:
    """Each canonical event's expected gain over complying, by the closed forms.

    See the module docstring. Fields of `policy` and `te` and `gamma` may be
    arrays that broadcast against each other; every gain then takes the
    shape they broadcast to.
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


#: A check's failure: (draw in the block, check rank, kind, detail). The
#: message is "kind [tag] detail".
_Failure = tuple[int, int, str, str]


def _check_best_responses(tables, policy, te, band, mode) -> list[_Failure]:
    """The engine's argmax against the closed-form rule, 18 cases per draw.

    Both sides decide every (scenario, agent) pair in one `tied_for_best`,
    on payoffs indexed [event, pair, audit rate, draw].
    """
    gammas = np.array(_GAMMAS).reshape(-1, 1)
    rows = len(_GAMMAS)
    pairs = [(scenario, agent) for scenario in _SCENARIOS for agent in Agent]
    engine = tied_for_best(
        [
            [agent_payoff(agent, tables[scenario][event])[:rows] for scenario, agent in pairs]
            for event in CANONICAL_EVENTS
        ],
        band,
    )
    gains = [_rule_gains(agent, scenario, gammas, policy, te, mode) for scenario, agent in pairs]
    rule = tied_for_best(list(zip(*gains)), band)
    failures = []
    for p, g, k in zip(*np.nonzero((engine != rule).any(axis=0))):
        (scenario, agent), (s, a) = pairs[p], divmod(p, len(Agent))
        failures.append(
            (
                k,
                (s * rows + g) * len(Agent) + a,
                "best-response mismatch",
                f"{agent.value} {scenario.value} gamma={_GAMMAS[g]}: analytic="
                f"{_events(rule[:, p, g, k])} oracle={_events(engine[:, p, g, k])}",
            )
        )
    return failures


def _case_margins(tables) -> np.ndarray:
    """Each case's margin first - second at lo, the midpoint and hi.

    Indexed [end, case, draw]; the arithmetic of `dominance.compare`.
    """
    margins = []
    for case, rows in zip(_THRESHOLD_CASES, _CASE_ROWS):
        c = case.comparison
        payoffs = tables[c.scenario]
        margins.append(
            agent_payoff(c.agent, payoffs[c.first])[rows]
            - agent_payoff(c.agent, payoffs[c.second])[rows]
        )
    return np.stack(margins, axis=1)


def _analytic(policy, te, mode) -> np.ndarray:
    """Each case's closed form on every draw, indexed [case, draw].

    NaN where the case does not apply, a sentinel replaces the value, or the
    value lies outside the case's range.
    """
    values = []
    for case in _THRESHOLD_CASES:
        bound = case.closed_form(policy, te, mode)
        valued = case.applies(policy, te) & np.logical_not(
            bound.undefined | bound.always_satisfied | bound.never_satisfied
        )
        in_range = (bound.value >= case.lo) & (bound.value <= case.hi)
        values.append(np.where(valued & in_range, bound.value, np.nan))
    return np.stack(values)


def _check_thresholds(tables, policy, te, band, mode, report) -> list[_Failure]:
    """Each closed form against the affine root of its margin, on every draw.

    Adds the checks and the largest deviation to `report`.
    """
    lo, hi = _CASE_LO, _CASE_HI
    analytic = _analytic(policy, te, mode)
    checked = ~np.isnan(analytic)
    roots = _affine_roots(_case_margins(tables), lo, hi)
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
    failures = []
    for c, k in zip(*np.nonzero((checked & ~affine) | sentinel | missed)):
        if not affine[c, k]:
            kind = "non-affine margin"
            detail = f"the midpoint is {roots.defect[c, k]:.3e} off the secant"
        elif sentinel[c, k]:
            kind = "threshold sentinel mismatch"
            oracle = ThresholdResult(
                roots.value[c, k],
                always_satisfied=roots.sign[c, k] > 0,
                never_satisfied=roots.sign[c, k] < 0,
            )
            detail = f"analytic={float(analytic[c, k])} oracle={oracle.sentinel.value}"
        else:
            kind = "threshold mismatch"
            detail = f"analytic={float(analytic[c, k])} oracle={float(roots.value[c, k])}"
        name = _THRESHOLD_CASES[c].name
        failures.append((k, _BEST_RESPONSE_CASES + c, kind, f"{name}: {detail}"))
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
        band = tie_band(te)
        tables = {scenario: _payoff_table(scenario, policy, te, mode) for scenario in _SCENARIOS}
        failures = _check_best_responses(tables, policy, te, band, mode)
        report.best_response_checks += _BEST_RESPONSE_CASES * len(te.x_o)
        failures += _check_thresholds(tables, policy, te, band, mode, report)
        found += [
            (start + int(k), rank, f"{kind} [{_tag(seed, start + int(k))}] {detail}")
            for k, rank, kind, detail in failures
        ]
    report.failures = [message for _, _, message in sorted(found)]
    return report
