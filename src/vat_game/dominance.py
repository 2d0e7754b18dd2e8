"""Pairwise payoff margins and closed-form compliance thresholds.

Every threshold here is an explicit formula; the oracle module re-derives
each one as the root of a `compare` margin of the engine, and the two must
agree. Each formula is written once, as a `*_threshold` function that holds
on floats and on arrays of draws alike and returns a `ThresholdResult`: the
value and the masks where a sentinel replaces it. None of them calls the
engine.

The package's one tie rule lives here too: two payoffs tie when they lie
within `tie_band` of each other, and `tied_for_best` is the argmax with
ties that every best response uses.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, NamedTuple

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

#: Relative tolerance used to classify payoff ties.
TIE_RTOL = 1e-9


def tie_band(te):
    """The largest payoff gap that still counts as a tie.

    TIE_RTOL times the transaction scale y_b + y_s + x_o + x_i + 1. `te` is a
    TransactionEndowments or a view whose fields are arrays; the band is then
    an array too.
    """
    return TIE_RTOL * (te.y_b + te.y_s + te.x_o + te.x_i + 1.0)


def tied_for_best(payoffs, band) -> np.ndarray:
    """Which strategies tie for the best payoff: the argmax with ties.

    `payoffs` runs over the competing strategies along its first axis. A
    strategy ties when its payoff comes within `band`, the `tie_band`, of
    the best; `band` may be an array that broadcasts against one strategy's
    payoffs.
    """
    import numpy as np  # here, so that commands without arrays start without numpy

    payoffs = np.asarray(payoffs)
    return payoffs >= payoffs.max(axis=0) - band


class Agent(Enum):
    BUYER = "buyer"
    SELLER = "seller"


def agent_payoff(agent: Agent, pv: PayoffVector) -> float:
    return pv.buyer if agent is Agent.BUYER else pv.seller


class Sentinel(Enum):
    VALUE = "value"
    ALWAYS_SATISFIED = "always-satisfied"
    NEVER_SATISFIED = "never-satisfied"
    UNDEFINED = "undefined"


class ThresholdResult(NamedTuple):
    """A closed-form threshold over floats or over arrays of draws.

    `value` is the formula. Each mask marks where a sentinel replaces it; the
    first that holds, in field order, wins. Masks are bools or boolean arrays
    that broadcast against `value`. The properties read one parameter set.
    """

    value: Any
    undefined: Any = False
    always_satisfied: Any = False
    never_satisfied: Any = False

    @classmethod
    def of(cls, value: float) -> ThresholdResult:
        """A plain value: no sentinel replaces it."""
        return cls(value)

    @property
    def sentinel(self) -> Sentinel:
        if self.undefined:
            return Sentinel.UNDEFINED
        if self.always_satisfied:
            return Sentinel.ALWAYS_SATISFIED
        if self.never_satisfied:
            return Sentinel.NEVER_SATISFIED
        return Sentinel.VALUE

    @property
    def feasible_in_unit_interval(self) -> bool:
        """Whether the value can bind for a rate-valued parameter.

        Values outside [0, 1] are reported as-is, never clamped.
        """
        return self.sentinel is Sentinel.VALUE and 0.0 <= self.value <= 1.0


def compare(
    agent: Agent,
    first: Event,
    second: Event,
    scenario: Scenario,
    regime: AuditRegime,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> float | np.ndarray:
    """The agent's expected-payoff margin first - second, in currency units.

    The agent prefers `first` where the margin exceeds `tie_band(te)` and
    `second` where it falls below minus the band. The inputs may be views
    whose fields are arrays that broadcast against each other; the margin is
    then an array too.
    """
    return agent_payoff(
        agent, expected_payoff(scenario, regime, first, policy, te, mode)
    ) - agent_payoff(agent, expected_payoff(scenario, regime, second, policy, te, mode))


def _quotient(numerator, denominator):
    """numerator / denominator, dividing by 1 where the denominator is 0.

    Each closed form masks those entries with a sentinel, so floats never
    divide by zero and arrays raise no warning.
    """
    return numerator / (denominator + (denominator == 0.0))


def _buyer_x_o(mode: SanctionBaseMode, te):
    """x_o as it enters the buyer's bounds: itself, or 1.0 in CORRECTED mode.

    CORRECTED levies the sanction on the evaded tax x_o*v, so x_o cancels
    from the buyer's margins; PAPER_LITERAL levies it on no base, and x_o stays.
    """
    return te.x_o if mode is SanctionBaseMode.PAPER_LITERAL else 1.0


def seller_tax_threshold(policy, te) -> ThresholdResult:
    """Income-tax rate above which the seller prefers EVADE_LT2 to complying.

    t_s* = v*x_i / (x_o - x_i); undefined for a zero-value transaction.
    """
    return ThresholdResult(
        _quotient(policy.v * te.x_i, te.x_o - te.x_i), undefined=te.x_o == te.x_i
    )


def vat_rate_threshold(policy, te) -> ThresholdResult:
    """VAT rate below which EVADE_LT2 beats complying for the seller.

    v* = t_s*(x_o - x_i)/x_i; with no input costs the VAT-refund motive
    vanishes and the bound is vacuous (always satisfied).
    """
    return ThresholdResult(
        _quotient(policy.t_s * (te.x_o - te.x_i), te.x_i), always_satisfied=te.x_i == 0.0
    )


def buyer_theta_threshold(
    regime, policy, te, mode: SanctionBaseMode = SanctionBaseMode.CORRECTED
) -> ThresholdResult:
    """Deduction share above which the buyer complies in the deduction scenario.

    CORRECTED: theta* = (v*delta - gamma*v*(1+s_v)) / (1 + v*delta). The
    sanction is levied on the evaded tax x_o*v, as in Yitzhaki (1974), so
    x_o cancels. PAPER_LITERAL charges gamma*v*(1+s_v) flat, proportional
    neither to the evaded tax nor to the undeclared base x_o (Allingham and
    Sandmo 1972), so x_o stays:
    theta* = (x_o*v*delta - gamma*v*(1+s_v)) / (x_o*(1 + v*delta)),
    undefined at x_o = 0. The no-audit and certain-audit bounds are the
    gamma=0 and gamma=1 specializations. A negative bound means any
    theta >= 0 already induces buyer compliance.
    """
    v, delta, x_o = policy.v, policy.delta, _buyer_x_o(mode, te)
    sanction = regime.gamma * v * (1.0 + policy.s_v)
    return ThresholdResult(
        _quotient(x_o * v * delta - sanction, x_o * (1.0 + v * delta)),
        undefined=x_o == 0.0,
    )


def buyer_gamma_threshold(
    policy, te, mode: SanctionBaseMode = SanctionBaseMode.CORRECTED
) -> ThresholdResult:
    """Audit probability above which the buyer complies without deductions.

    The expected sanction must outweigh the evaded VAT x_o*v. CORRECTED
    levies it on the evaded tax (Yitzhaki 1974), gamma*x_o*v*(1+s_v), so
    gamma* = 1 / (1 + s_v). PAPER_LITERAL levies gamma*v*(1+s_v) on no base
    at all, neither the evaded tax nor the undeclared x_o (Allingham and
    Sandmo 1972), so gamma* = x_o / (1 + s_v), undefined at x_o = 0.
    """
    x_o = _buyer_x_o(mode, te)
    return ThresholdResult(x_o / (1.0 + policy.s_v), undefined=x_o == 0.0)


def seller_gamma_threshold_ewt(policy, te) -> ThresholdResult:
    """Audit probability above which the seller drops whole-transaction evasion.

    gamma* = (x_o - x_i) / (x_o*(1 + s_ys)); undefined at x_o = 0.
    """
    return ThresholdResult(
        _quotient(te.x_o - te.x_i, te.x_o * (1.0 + policy.s_ys)), undefined=te.x_o == 0.0
    )


def seller_gamma_threshold_elt2(policy, te) -> ThresholdResult:
    """Audit probability above which the seller drops EVADE_LT2.

    gamma* = (t_s*(x_o - x_i) - v*x_i) / (t_s*x_o*(1 + s_ys)), undefined at
    t_s*x_o = 0. When the numerator is negative that evasion variant never
    pays and any audit probability deters it; at gamma=0 the condition
    reduces to the seller_tax_threshold comparison.
    """
    t_s, x_o, x_i = policy.t_s, te.x_o, te.x_i
    gain = t_s * (x_o - x_i) - policy.v * x_i
    return ThresholdResult(
        _quotient(gain, t_s * x_o * (1.0 + policy.s_ys)),
        undefined=t_s * x_o == 0.0,
        never_satisfied=gain < 0.0,
    )


def dominant_events(
    agent: Agent,
    scenario: Scenario,
    regime: AuditRegime,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> tuple[Event, ...]:
    """Events maximizing the agent's expected payoff, by direct enumeration.

    Only the four canonical events compete; the appendix reproduction
    variant is excluded. Ties (within the tie band) are all returned, in
    canonical order.
    """
    payoffs = [
        agent_payoff(agent, expected_payoff(scenario, regime, event, policy, te, mode))
        for event in CANONICAL_EVENTS
    ]
    tied = tied_for_best(payoffs, tie_band(te))
    return tuple(e for e, t in zip(CANONICAL_EVENTS, tied) if t)
