"""Core payoff engine for the VAT transaction game.

Three agents share the surplus of a single VAT-liable transaction: the
buyer (B), the seller (S) and the government (G). Every joint strategy
("event") under every fiscal scenario and audit state maps to an exact
payoff vector, and taxes/sanctions only reallocate surplus, so

    Y_B + Y_S + Y_G = y_B + y_S - x_I

holds identically for every defined cell. Stochastic auditing is handled
as a gamma-mixture of the unaudited and audited payoffs.

Every cell is priced by one kernel, `cell_streams`: a single pass over the
event yields the buyer, seller and government streams of the unaudited
state and, on request, of the audited one. `payoff_event`,
`government_revenue` and `expected_payoff` read their results from it.
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


# The engine tests these members on every call. On CPython 3.10 and 3.11
# `Scenario.TAX` in a function body goes through EnumType.__getattr__ (about
# 120 ns); a module global costs under 10 ns.
_NO_TAXES = Scenario.NO_TAXES
_TAX = Scenario.TAX
_TAX_WITH_DEDUCTIONS = Scenario.TAX_WITH_DEDUCTIONS
_COMPLY = Event.COMPLY
_EVADE_LT1 = Event.EVADE_LT1
_EVADE_LT2 = Event.EVADE_LT2
_EVADE_WT = Event.EVADE_WT
_LT_APPENDIX = Event.EVADE_LT_APPENDIX
_PAPER_LITERAL = SanctionBaseMode.PAPER_LITERAL


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


def cell_streams(
    scenario: Scenario,
    audited: bool,
    event: Event,
    policy: TaxPolicy,
    te: TransactionEndowments,
) -> tuple[tuple, tuple | None]:
    """Unaudited streams of one cell and, if `audited`, the audited ones.

    Each is (buyer, seller, income tax of seller, income tax of buyer, VAT),
    sanctions folded into the stream they surcharge. Audited evasion moves
    x_o*v*(1+s_v) from the buyer to VAT and x_o*t_s*(1+s_ys) from the seller
    to the seller's income tax; compliance is audit-neutral. Fields of
    `policy` and `te` may be ndarrays: only arithmetic and `is` tests touch
    them.
    """
    if event is _LT_APPENDIX and (scenario is not _TAX or audited):
        raise UndefinedEventError(
            "the appendix last-transaction variant is only defined for the "
            "plain tax scenario without audit"
        )
    x_o, x_i, y_s, y_b = te.x_o, te.x_i, te.y_s, te.y_b

    if scenario is _NO_TAXES:
        plain = (y_b - x_o, y_s + x_o - x_i, 0.0, 0.0, 0.0)
        return plain, plain if audited else None

    t_s, t_b, v = policy.t_s, policy.t_b, policy.v
    itb = t_b * y_b

    if event is _COMPLY:
        seller = (1.0 - t_s) * (y_s + x_o - x_i)
        ires = t_s * (y_s + x_o - x_i)
        if scenario is _TAX_WITH_DEDUCTIONS:
            dv = policy.delta * v
            buyer = (1.0 - t_b) * y_b - (1.0 - policy.theta) * x_o * (1.0 + dv)
            plain = (buyer, seller, ires, itb - policy.theta * x_o * (1.0 + dv), x_o * dv)
        else:
            plain = ((1.0 - t_b) * y_b - x_o * (1.0 + v), seller, ires, itb, v * x_o)
        return plain, plain if audited else None

    # Evasion events are identical in the plain-tax and deduction scenarios.
    # The seller invoices nothing, so the buyer pays x_o flat.
    buyer = (1.0 - t_b) * y_b - x_o
    if event is _EVADE_LT1:
        seller = (1.0 - t_s) * (y_s - x_i * (1.0 + v)) + x_o
        ires, vat = t_s * (y_s - x_i * (1.0 + v)), v * x_i
    elif event is _EVADE_LT2:
        seller = (1.0 - t_s) * y_s - x_i * (1.0 + v) + x_o
        ires, vat = t_s * y_s, v * x_i
    elif event is _EVADE_WT:
        seller = (1.0 - t_s) * y_s + x_o - x_i
        ires, vat = t_s * y_s, 0.0
    else:  # EVADE_LT_APPENDIX
        seller = (1.0 - t_s) * (y_s - x_i) + x_o - v * x_i
        ires, vat = t_s * (y_s - x_i), v * x_i
    plain = (buyer, seller, ires, itb, vat)
    if not audited:
        return plain, None
    on_vat = x_o * v * (1.0 + policy.s_v)
    on_ires = x_o * t_s * (1.0 + policy.s_ys)
    return plain, (buyer - on_vat, seller - on_ires, ires + on_ires, itb, vat + on_vat)


def government_revenue(
    scenario: Scenario,
    audited: bool,
    event: Event,
    policy: TaxPolicy,
    te: TransactionEndowments,
) -> GovernmentRevenue:
    """Government revenue streams for one cell of the game."""
    plain, sanctioned = cell_streams(scenario, audited, event, policy, te)
    _, _, ires, itb, vat = sanctioned or plain
    # As namedtuple's own _make does: the __new__ it generates costs twice this.
    return tuple.__new__(GovernmentRevenue, (ires, itb, vat))


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
    plain, sanctioned = cell_streams(scenario, audited, event, policy, te)
    buyer, seller, ires, itb, vat = sanctioned or plain
    return tuple.__new__(PayoffVector, (buyer, seller, ires + itb + vat))


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

    (buyer, seller, ires, itb, vat), (a_buyer, a_seller, a_ires, a_itb, a_vat) = (
        cell_streams(scenario, True, event, policy, te)
    )
    w = 1.0 - gamma
    if mode is _PAPER_LITERAL and scenario is not _NO_TAXES and event is not _COMPLY:
        buyer = buyer - gamma * policy.v * (1.0 + policy.s_v)
    else:
        buyer = w * buyer + gamma * a_buyer
    return tuple.__new__(
        PayoffVector,
        (
            buyer,
            w * seller + gamma * a_seller,
            w * (ires + itb + vat) + gamma * (a_ires + a_itb + a_vat),
        ),
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
    if scenario is _TAX and not audited:
        return CANONICAL_EVENTS + (_LT_APPENDIX,)
    return CANONICAL_EVENTS
