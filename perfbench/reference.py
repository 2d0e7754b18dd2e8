"""Independent transcription of the VAT game, used to check the program.

Written from the model's definitions (a buyer, a seller and the government
share one VAT-liable transaction), not from the package source: nothing here
imports ``vat_game``. Parameters are plain mappings keyed by ``KEYS``, events
and scenarios are the CLI's string names, and every formula uses integer
literals only, so it runs unchanged on floats and on ``fractions.Fraction``.
Threshold roots are therefore solved exactly.
"""

from __future__ import annotations

from fractions import Fraction

KEYS = ("t_s", "t_b", "v", "delta", "theta", "s_v", "s_ys", "x_o", "x_i", "y_s", "y_b")

NO_TAXES, TAX, DEDUCTIONS = "no-taxes", "tax", "tax-with-deductions"
SCENARIOS = (NO_TAXES, TAX, DEDUCTIONS)
COMPLY, LT1, LT2, WT, LTA = (
    "comply",
    "evade-lt1",
    "evade-lt2",
    "evade-wt",
    "evade-lt-appendix",
)
CANONICAL = (COMPLY, LT1, LT2, WT)
MODES = ("corrected", "paper-literal")

#: The worked spreadsheet example and the section-6 frontier example.
APPENDIX_PARAMS = dict(
    t_s=0.24, t_b=0.33, v=0.22, delta=1.0, theta=0.10, s_v=0.3, s_ys=0.3,
    x_o=10_000.0, x_i=5_000.0, y_s=10_000.0, y_b=20_000.0,
)
SECTION6_PARAMS = dict(APPENDIX_PARAMS, x_o=100.0, x_i=50.0, y_s=200.0, y_b=400.0)

#: Section-6 anchors as printed in the paper: the whole-transaction frontier
#: intercept (both modes) and the common frontier slope (paper-literal mode).
SECTION6_WT_INTERCEPT = 0.27869
SECTION6_LITERAL_SLOPE = -0.25808
ANCHOR_TOL = 5e-6  # half a unit in the last printed digit, plus CSV rounding

#: The paper's appendix table, row -> column -> currency, typed in from the
#: publication. Columns map to (scenario, event), all unaudited.
APPENDIX_COLUMNS = {
    "no_taxes": (NO_TAXES, COMPLY),
    "full_compliance": (TAX, COMPLY),
    "evasion_last_transaction": (TAX, LTA),
    "evasion_all_transactions": (TAX, WT),
    "compliance_with_deductions": (DEDUCTIONS, COMPLY),
}
_PUBLISHED_ROWS = {
    "yf_net": (15_000, 11_400, 12_700, 12_600, 11_400),
    "yb_net": (10_000, 1_200, 3_400, 3_400, 2_420),
    "gov_yf": (0, 3_600, 1_200, 2_400, 3_600),
    "gov_yb": (0, 6_600, 6_600, 6_600, 5_380),
    "gov_vat": (0, 2_200, 1_100, 0, 2_200),
    "ysoc": (25_000, 25_000, 25_000, 25_000, 25_000),
    "private_income_after_tax": (25_000, 12_600, 16_100, 16_000, 13_820),
    "tot_taxes": (0, 12_400, 8_900, 9_000, 11_180),
}
PUBLISHED_APPENDIX = {
    row: dict(zip(APPENDIX_COLUMNS, values)) for row, values in _PUBLISHED_ROWS.items()
}
PUBLISHED_TOL = 0.5  # the published figures are whole currency units

#: Closed-form thresholds of the paper, each the root of one payoff margin in
#: one parameter: name -> (agent, first, second, scenario, audit rate, varied
#: parameter, admissible range of that parameter).
THRESHOLD_FAMILIES = {
    "seller_tax_threshold": ("seller", COMPLY, LT2, TAX, 0.0, "t_s", (0.0, 0.999)),
    "vat_rate_threshold": ("seller", COMPLY, LT2, TAX, 0.0, "v", (0.0, 0.999)),
    "buyer_theta_threshold": ("buyer", COMPLY, LT1, DEDUCTIONS, 0.37, "theta", (0.0, 1.0)),
    "buyer_gamma_threshold": ("buyer", COMPLY, WT, TAX, None, "gamma", (0.0, 1.0)),
    "seller_gamma_threshold_ewt": ("seller", COMPLY, WT, TAX, None, "gamma", (0.0, 1.0)),
    "seller_gamma_threshold_elt2": ("seller", COMPLY, LT2, TAX, None, "gamma", (0.0, 1.0)),
}

#: Audit rates at which best responses are checked, as in `vat-game validate`.
BEST_RESPONSE_GAMMAS = (0.0, 0.37, 1.0)


def exact(p):
    """The same parameters as exact rationals."""
    return {k: Fraction(p[k]) for k in KEYS}


def scale(p):
    """Magnitude of a transaction's money flows, for relative tolerances."""
    return p["y_b"] + p["y_s"] + p["x_o"] + p["x_i"] + 1


def is_defined(scenario, audited, event):
    return event != LTA or (scenario == TAX and not audited)


def defined_cells():
    """Every (scenario, audited, event) cell of the game."""
    return [
        (s, a, e)
        for s in SCENARIOS
        for a in (False, True)
        for e in CANONICAL + (LTA,)
        if is_defined(s, a, e)
    ]


def cell(p, scenario, audited, event):
    """Net incomes of one cell: (buyer, seller, (seller tax, buyer tax, VAT)).

    The seller earns y_s plus the price x_o and pays for inputs; what it
    declares is taxed at t_s. The buyer pays the price, plus VAT when invoiced,
    out of an income taxed at t_b. VAT reaches the state along the whole chain.
    Audits surcharge the evaded VAT (buyer) and the undeclared income (seller).
    """
    t_s, t_b, v = p["t_s"], p["t_b"], p["v"]
    x_o, x_i, y_s, y_b = p["x_o"], p["x_i"], p["y_s"], p["y_b"]
    if scenario == NO_TAXES:
        return y_b - x_o, y_s + x_o - x_i, (0, 0, 0)

    buyer_tax = t_b * y_b
    if event == COMPLY:
        vat_rate = p["delta"] * v if scenario == DEDUCTIONS else v
        price = x_o * (1 + vat_rate)
        deduction = p["theta"] * price if scenario == DEDUCTIONS else 0
        inputs, declared, vat = x_i, y_s + x_o - x_i, vat_rate * x_o
    else:
        # Unrecorded sale at the bare price; input VAT paid upstream stays
        # with the state unless the inputs were bought off the books too.
        price, deduction = x_o, 0
        inputs, declared, vat = {
            LT1: (x_i * (1 + v), y_s - x_i * (1 + v), v * x_i),
            LT2: (x_i * (1 + v), y_s, v * x_i),
            WT: (x_i, y_s, 0),
            LTA: (x_i * (1 + v), y_s - x_i, v * x_i),
        }[event]

    buyer = y_b - price - buyer_tax + deduction
    seller = y_s + x_o - inputs - t_s * declared
    seller_tax = t_s * declared
    if audited and event != COMPLY:
        vat_fine = x_o * v * (1 + p["s_v"])
        income_fine = x_o * t_s * (1 + p["s_ys"])
        buyer -= vat_fine
        seller -= income_fine
        seller_tax += income_fine
        vat += vat_fine
    return buyer, seller, (seller_tax, buyer_tax - deduction, vat)


def expected(p, scenario, gamma, event, mode):
    """Expected (buyer, seller, government) at audit rate gamma.

    Corrected mode mixes the two audit states. Paper-literal mode charges the
    buyer of an evasion the rate gamma*v*(1+s_v) instead of the amount
    gamma*x_o*v*(1+s_v).
    """
    ub, us, ug = cell(p, scenario, False, event)
    ab, as_, ag = cell(p, scenario, True, event)
    buyer = (1 - gamma) * ub + gamma * ab
    if mode == "paper-literal" and scenario != NO_TAXES and event != COMPLY:
        buyer = ub - gamma * p["v"] * (1 + p["s_v"])
    return buyer, (1 - gamma) * us + gamma * as_, (1 - gamma) * sum(ug) + gamma * sum(ag)


def literal_gap(p, gamma):
    """How far a paper-literal evasion payoff misses surplus conservation."""
    return gamma * p["v"] * (1 + p["s_v"]) * (p["x_o"] - 1)


def appendix_table(p):
    """The appendix's 5x8 table at parameters p, row -> column -> value."""
    table = {row: {} for row in _PUBLISHED_ROWS}
    for column, (scenario, event) in APPENDIX_COLUMNS.items():
        buyer, seller, gov = cell(p, scenario, False, event)
        for row, value in zip(
            table,
            (seller, buyer, gov[0], gov[1], gov[2], buyer + seller + sum(gov),
             buyer + seller, sum(gov)),
        ):
            table[row][column] = value
    return table


def coalition_payoff(p, event, gamma, mode):
    """Buyer plus seller: compliance priced with deductions, evasion without."""
    scenario = DEDUCTIONS if event == COMPLY else TAX
    buyer, seller, _ = expected(p, scenario, gamma, event, mode)
    return buyer + seller


def _top(payoffs, band):
    """Indices of the exact maximum, or None when another payoff is within band.

    Exact ties (equal payoffs) are returned together, as the model's best
    responses are; a near tie cannot be told from roundoff and is left open.
    """
    best = max(payoffs)
    if any(best - band <= x < best for x in payoffs):
        return None
    return [i for i, x in enumerate(payoffs) if x == best]


def coalition_best(p, gamma, mode, band):
    """The coalition's best joint event (first of a tie), or None near a tie."""
    top = _top([coalition_payoff(p, e, gamma, mode) for e in CANONICAL], band)
    return None if top is None else CANONICAL[top[0]]


def best_response(p, agent, scenario, gamma, mode, band):
    """An agent's best canonical events, in canonical order, or None near a tie.

    Pass exact parameters: several events tie exactly by construction (every
    evasion costs the buyer the same).
    """
    k = 0 if agent == "buyer" else 1
    payoffs = [expected(p, scenario, gamma, e, mode)[k] for e in CANONICAL]
    top = _top(payoffs, band)
    return None if top is None else tuple(CANONICAL[i] for i in top)


def frontier(p, variant, mode):
    """(intercept, slope) of the line theta(gamma) where compliance ties variant.

    The coalition margin is affine in theta and in gamma, so three evaluations
    pin the line down.
    """

    def margin(theta, gamma):
        q = dict(p, theta=theta)
        return coalition_payoff(q, COMPLY, gamma, mode) - coalition_payoff(
            q, variant, gamma, mode
        )

    base = margin(0, 0)
    per_theta = margin(1, 0) - base
    return -base / per_theta, -(margin(0, 1) - base) / per_theta


def threshold_margin(p, family, mode, x):
    """A threshold family's payoff margin (first minus second) at x."""
    agent, first, second, scenario, gamma, varied, _ = THRESHOLD_FAMILIES[family]
    k = 0 if agent == "buyer" else 1
    if varied == "gamma":
        q, g = p, x
    else:
        # The family's fixed audit rate, in the parameters' number type.
        q, g = dict(p, **{varied: x}), type(p["v"])(gamma)
    return (
        expected(q, scenario, g, first, mode)[k] - expected(q, scenario, g, second, mode)[k]
    )


def threshold_root(p, family, mode):
    """Root of a threshold family's margin, or None if the margin is flat.

    Every margin is affine in its varied parameter, so two evaluations give
    the root; with exact (Fraction) parameters the root is exact.
    """
    at0 = threshold_margin(p, family, mode, 0)
    at1 = threshold_margin(p, family, mode, 1)
    if at0 == at1:
        return None
    return at0 / (at0 - at1)
