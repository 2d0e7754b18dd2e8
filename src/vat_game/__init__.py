"""Deterministic payoff engine and threshold analysis for VAT compliance games."""

from .model import (
    CANONICAL_EVENTS,
    AuditRegime,
    Event,
    GovernmentRevenue,
    NonFiniteInputError,
    PayoffVector,
    SanctionBaseMode,
    Scenario,
    TaxPolicy,
    TransactionEndowments,
    UndefinedEventError,
    conservation_residual,
    defined_events,
    expected_payoff,
    government_revenue,
    payoff_event,
)

__all__ = [
    "CANONICAL_EVENTS",
    "AuditRegime",
    "Event",
    "GovernmentRevenue",
    "NonFiniteInputError",
    "PayoffVector",
    "SanctionBaseMode",
    "Scenario",
    "TaxPolicy",
    "TransactionEndowments",
    "UndefinedEventError",
    "conservation_residual",
    "defined_events",
    "expected_payoff",
    "government_revenue",
    "payoff_event",
]

__version__ = "0.1.0"
