"""Core payoff engine for the VAT transaction game.

Three agents share the surplus of a single VAT-liable transaction: the
buyer (B), the seller (S) and the government (G). Every joint strategy
("event") under every fiscal scenario and audit state maps to an exact
payoff vector, and taxes/sanctions only reallocate surplus, so

    Y_B + Y_S + Y_G = y_B + y_S - x_I

holds identically for every defined cell. Stochastic auditing is handled
as a gamma-mixture of the unaudited and audited payoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class NonFiniteInputError(ValueError):
    """A model input is NaN or infinite."""


class UndefinedEventError(ValueError):
    """The requested (scenario, audit state, event) cell is not defined."""


class Scenario(Enum):
    NO_TAXES = "no-taxes"
    TAX = "tax"
    TAX_WITH_DEDUCTIONS = "tax-with-deductions"


class Event(Enum):
    COMPLY = "comply"
    EVADE_LT1 = "evade-lt1"
    EVADE_LT2 = "evade-lt2"
    EVADE_WT = "evade-wt"
    # Variant matching the published spreadsheet's "Evasion on Last
    # Transaction" column: the seller deducts input costs from taxable
    # income but forfeits the input-VAT refund. Only defined for the
    # plain tax scenario without audit.
    EVADE_LT_APPENDIX = "evade-lt-appendix"


#: Canonical ordering used for tie-breaking in dominance enumerations.
CANONICAL_EVENTS = (Event.COMPLY, Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT)

EVASION_EVENTS = frozenset(
    {Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT, Event.EVADE_LT_APPENDIX}
)


class SanctionBaseMode(Enum):
    """How the buyer's expected VAT sanction is based.

    CORRECTED charges the sanction on the full evaded VAT, gamma*x_O*v*(1+s_V),
    which keeps the surplus conservation identity intact for every gamma.
    PAPER_LITERAL drops the x_O factor (gamma*v*(1+s_V)), reproducing the
    source text's Bayesian buyer payoffs and the section-6 numeric anchors at
    the cost of violating conservation by exactly gamma*v*(1+s_V)*(x_O - 1).
    """

    CORRECTED = "corrected"
    PAPER_LITERAL = "paper-literal"


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise NonFiniteInputError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TaxPolicy:
    """All fiscal rates of the model.

    t_s, t_b: marginal income-tax rates of seller and buyer, in [0, 1).
    v: VAT rate in [0, 1).
    delta: VAT discount applied in the deduction scenario, in [0, 1].
    theta: deductible share of the buyer's VAT-documented expense, in [0, 1].
    s_v, s_ys: sanction surcharges on evaded VAT and on the seller's
        undeclared income tax, both >= 0.
    """

    t_s: float
    t_b: float
    v: float
    delta: float = 1.0
    theta: float = 0.0
    s_v: float = 0.0
    s_ys: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t_s", "t_b", "v", "delta", "theta", "s_v", "s_ys"):
            _require_finite(name, getattr(self, name))
        for name in ("t_s", "t_b", "v"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        for name in ("delta", "theta"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("s_v", "s_ys"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class TransactionEndowments:
    """Transaction values and pre-transaction incomes.

    x_o: output value of the final good, x_i: input value; the taxable
    value added is x_o - x_i. y_s, y_b: declared incomes of seller and
    buyer before the transaction.
    """

    x_o: float
    x_i: float
    y_s: float
    y_b: float

    def __post_init__(self) -> None:
        for name in ("x_o", "x_i", "y_s", "y_b"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class AuditRegime:
    """Audit probability of the tax authority.

    gamma = 0 is the no-audit game, gamma = 1 the certain-audit game,
    anything in between the Bayesian mixture.
    """

    gamma: float

    def __post_init__(self) -> None:
        _require_finite("gamma", self.gamma)
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


class PayoffVector(NamedTuple):
    buyer: float
    seller: float
    government: float

    def total(self) -> float:
        return self.buyer + self.seller + self.government


class GovernmentRevenue(NamedTuple):
    """Government revenue split into its fiscal streams.

    Sanction proceeds are folded into the stream they surcharge: the VAT
    sanction into `vat`, the income-tax sanction into `income_tax_seller`.
    """

    income_tax_seller: float
    income_tax_buyer: float
    vat: float

    def total(self) -> float:
        return self.income_tax_seller + self.income_tax_buyer + self.vat


def _check_event_defined(scenario: Scenario, audited: bool, event: Event) -> None:
    if event is Event.EVADE_LT_APPENDIX and (scenario is not Scenario.TAX or audited):
        raise UndefinedEventError(
            "the appendix last-transaction variant is only defined for the "
            "plain tax scenario without audit"
        )


def government_revenue(
    scenario: Scenario,
    audited: bool,
    event: Event,
    policy: TaxPolicy,
    te: TransactionEndowments,
) -> GovernmentRevenue:
    """Government revenue streams for one cell of the game."""
    _check_event_defined(scenario, audited, event)
    if scenario is Scenario.NO_TAXES:
        return GovernmentRevenue(0.0, 0.0, 0.0)

    t_s, t_b, v = policy.t_s, policy.t_b, policy.v
    x_o, x_i, y_s, y_b = te.x_o, te.x_i, te.y_s, te.y_b

    if event is Event.COMPLY:
        if scenario is Scenario.TAX_WITH_DEDUCTIONS:
            dv = policy.delta * v
            return GovernmentRevenue(
                income_tax_seller=t_s * (y_s + x_o - x_i),
                income_tax_buyer=t_b * y_b - policy.theta * x_o * (1.0 + dv),
                vat=x_o * dv,
            )
        return GovernmentRevenue(
            income_tax_seller=t_s * (y_s + x_o - x_i),
            income_tax_buyer=t_b * y_b,
            vat=v * x_o,
        )

    # Evasion events are identical in the plain-tax and deduction scenarios.
    if event is Event.EVADE_LT1:
        ires, vat = t_s * (y_s - x_i * (1.0 + v)), v * x_i
    elif event is Event.EVADE_LT2:
        ires, vat = t_s * y_s, v * x_i
    elif event is Event.EVADE_WT:
        ires, vat = t_s * y_s, 0.0
    else:  # EVADE_LT_APPENDIX
        ires, vat = t_s * (y_s - x_i), v * x_i

    if audited:
        ires += x_o * t_s * (1.0 + policy.s_ys)
        vat += x_o * v * (1.0 + policy.s_v)
    return GovernmentRevenue(ires, t_b * y_b, vat)


def payoff_event(
    scenario: Scenario,
    audited: bool,
    event: Event,
    policy: TaxPolicy,
    te: TransactionEndowments,
) -> PayoffVector:
    """Exact payoff vector for one cell of the game.

    Compliance payoffs are identical in both audit states; audited evasion
    adds the sanction x_o*v*(1+s_v) to the buyer's bill and
    x_o*t_s*(1+s_ys) to the seller's. Under NO_TAXES every event collapses
    to the single benchmark payoff.
    """
    _check_event_defined(scenario, audited, event)
    x_o, x_i, y_s, y_b = te.x_o, te.x_i, te.y_s, te.y_b

    if scenario is Scenario.NO_TAXES:
        return PayoffVector(y_b - x_o, y_s + x_o - x_i, 0.0)

    t_s, t_b, v = policy.t_s, policy.t_b, policy.v
    gov = government_revenue(scenario, audited, event, policy, te).total()

    if event is Event.COMPLY:
        if scenario is Scenario.TAX_WITH_DEDUCTIONS:
            dv = policy.delta * v
            buyer = (1.0 - t_b) * y_b - (1.0 - policy.theta) * x_o * (1.0 + dv)
        else:
            buyer = (1.0 - t_b) * y_b - x_o * (1.0 + v)
        seller = (1.0 - t_s) * (y_s + x_o - x_i)
        return PayoffVector(buyer, seller, gov)

    # Buyer side of every evasion event: the seller invoices nothing, so the
    # buyer pays x_o flat; if audited they additionally owe the evaded VAT
    # plus surcharge.
    buyer = (1.0 - t_b) * y_b - x_o
    if audited:
        buyer -= x_o * v * (1.0 + policy.s_v)

    if event is Event.EVADE_LT1:
        seller = (1.0 - t_s) * (y_s - x_i * (1.0 + v)) + x_o
    elif event is Event.EVADE_LT2:
        seller = (1.0 - t_s) * y_s - x_i * (1.0 + v) + x_o
    elif event is Event.EVADE_WT:
        seller = (1.0 - t_s) * y_s + x_o - x_i
    else:  # EVADE_LT_APPENDIX
        seller = (1.0 - t_s) * (y_s - x_i) + x_o - v * x_i
    if audited:
        seller -= x_o * t_s * (1.0 + policy.s_ys)

    return PayoffVector(buyer, seller, gov)


def expected_payoff(
    scenario: Scenario,
    regime: AuditRegime,
    event: Event,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> PayoffVector:
    """Gamma-mixture of the unaudited and audited payoffs.

    In PAPER_LITERAL mode the buyer's expected sanction on evasion events
    drops the x_o factor (gamma*v*(1+s_v) instead of gamma*x_o*v*(1+s_v));
    seller and government are unaffected.
    """
    gamma = regime.gamma
    # The shortcut is for scalars; an array gamma takes the mixture, which is
    # exactly the unaudited payoff wherever gamma is 0.
    if isinstance(gamma, (int, float)) and gamma == 0.0:
        return payoff_event(scenario, False, event, policy, te)

    unaudited = payoff_event(scenario, False, event, policy, te)
    audited = payoff_event(scenario, True, event, policy, te)
    w = 1.0 - gamma
    buyer = w * unaudited.buyer + gamma * audited.buyer
    if (
        mode is SanctionBaseMode.PAPER_LITERAL
        and scenario is not Scenario.NO_TAXES
        and event in EVASION_EVENTS
    ):
        buyer = unaudited.buyer - gamma * policy.v * (1.0 + policy.s_v)
    return PayoffVector(
        buyer,
        w * unaudited.seller + gamma * audited.seller,
        w * unaudited.government + gamma * audited.government,
    )


def conservation_residual(pv: PayoffVector, te: TransactionEndowments) -> float:
    """Deviation of the payoff total from the surplus identity.

    Zero (up to roundoff) for every defined cell and for every
    CORRECTED-mode expectation; PAPER_LITERAL expectations of evasion
    events miss it by gamma*v*(1+s_v)*(x_o - 1) on the buyer side.
    """
    return pv.total() - (te.y_b + te.y_s - te.x_i)


def defined_events(scenario: Scenario, audited: bool) -> tuple[Event, ...]:
    """Events defined for a scenario/audit-state cell, canonical order first.

    The appendix variant is listed last and only where it exists; dominance
    enumerations deliberately exclude it (see dominance.dominant_events).
    """
    if scenario is Scenario.TAX and not audited:
        return CANONICAL_EVENTS + (Event.EVADE_LT_APPENDIX,)
    return CANONICAL_EVENTS
