"""Reproduction of the published five-column numerical example.

The worked spreadsheet prices one transaction (x_o=10000, x_i=5000,
incomes 20000/10000, t_b=0.33, t_s=0.24, v=0.22, delta=1, theta=0.10)
under five strategy columns. Each computed row is rebuilt from the payoff
engine and diffed against the published figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    Event,
    Scenario,
    TaxPolicy,
    TransactionEndowments,
    cell_streams,
)

#: column key -> (scenario, event)
APPENDIX_COLUMNS: dict[str, tuple[Scenario, Event]] = {
    "no_taxes": (Scenario.NO_TAXES, Event.COMPLY),
    "full_compliance": (Scenario.TAX, Event.COMPLY),
    "evasion_last_transaction": (Scenario.TAX, Event.EVADE_LT_APPENDIX),
    "evasion_all_transactions": (Scenario.TAX, Event.EVADE_WT),
    "compliance_with_deductions": (Scenario.TAX_WITH_DEDUCTIONS, Event.COMPLY),
}

APPENDIX_ROWS = (
    "yf_net",
    "yb_net",
    "gov_yf",
    "gov_yb",
    "gov_vat",
    "ysoc",
    "private_income_after_tax",
    "tot_taxes",
)

#: Published spreadsheet values, row -> column -> currency.
PUBLISHED_APPENDIX: dict[str, dict[str, float]] = {
    "yf_net": {
        "no_taxes": 15_000.0,
        "full_compliance": 11_400.0,
        "evasion_last_transaction": 12_700.0,
        "evasion_all_transactions": 12_600.0,
        "compliance_with_deductions": 11_400.0,
    },
    "yb_net": {
        "no_taxes": 10_000.0,
        "full_compliance": 1_200.0,
        "evasion_last_transaction": 3_400.0,
        "evasion_all_transactions": 3_400.0,
        "compliance_with_deductions": 2_420.0,
    },
    "gov_yf": {
        "no_taxes": 0.0,
        "full_compliance": 3_600.0,
        "evasion_last_transaction": 1_200.0,
        "evasion_all_transactions": 2_400.0,
        "compliance_with_deductions": 3_600.0,
    },
    "gov_yb": {
        "no_taxes": 0.0,
        "full_compliance": 6_600.0,
        "evasion_last_transaction": 6_600.0,
        "evasion_all_transactions": 6_600.0,
        "compliance_with_deductions": 5_380.0,
    },
    "gov_vat": {
        "no_taxes": 0.0,
        "full_compliance": 2_200.0,
        "evasion_last_transaction": 1_100.0,
        "evasion_all_transactions": 0.0,
        "compliance_with_deductions": 2_200.0,
    },
    "ysoc": {col: 25_000.0 for col in APPENDIX_COLUMNS},
    "private_income_after_tax": {
        "no_taxes": 25_000.0,
        "full_compliance": 12_600.0,
        "evasion_last_transaction": 16_100.0,
        "evasion_all_transactions": 16_000.0,
        "compliance_with_deductions": 13_820.0,
    },
    "tot_taxes": {
        "no_taxes": 0.0,
        "full_compliance": 12_400.0,
        "evasion_last_transaction": 8_900.0,
        "evasion_all_transactions": 9_000.0,
        "compliance_with_deductions": 11_180.0,
    },
}


@dataclass(frozen=True)
class AppendixDiff:
    row: str
    column: str
    computed: float
    published: float

    @property
    def deviation(self) -> float:
        return self.computed - self.published


def compute_appendix_table(
    policy: TaxPolicy, te: TransactionEndowments
) -> dict[str, dict[str, float]]:
    """Row -> column -> computed value, from the payoff engine."""
    table: dict[str, dict[str, float]] = {row: {} for row in APPENDIX_ROWS}
    for column, (scenario, event) in APPENDIX_COLUMNS.items():
        (buyer, seller, ires, itb, vat), _ = cell_streams(
            scenario, False, event, policy, te
        )
        government = ires + itb + vat
        table["yf_net"][column] = seller
        table["yb_net"][column] = buyer
        table["gov_yf"][column] = ires
        table["gov_yb"][column] = itb
        table["gov_vat"][column] = vat
        table["ysoc"][column] = buyer + seller + government
        table["private_income_after_tax"][column] = buyer + seller
        table["tot_taxes"][column] = government
    return table


def diff_appendix_table(
    table: dict[str, dict[str, float]], tolerance: float = 0.5
) -> list[AppendixDiff]:
    """Cells deviating from the published figures by more than `tolerance`."""
    if not math.isfinite(tolerance) or tolerance < 0.0:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    mismatches = []
    for row in APPENDIX_ROWS:
        for column in APPENDIX_COLUMNS:
            computed = table[row][column]
            published = PUBLISHED_APPENDIX[row][column]
            if abs(computed - published) > tolerance:
                mismatches.append(AppendixDiff(row, column, computed, published))
    return mismatches
