"""End-to-end acceptance gate.

Seven numbered criteria, each emitting a single PASS/FAIL line in the pytest
terminal summary (see conftest).  Every criterion is asserted, so a FAIL line
always comes with a failing test.
"""

import dataclasses
import time

import pytest

from vat_game import oracle
from vat_game.coalition import (
    FRONTIER_VARIANTS,
    coalition_best_event,
    coalition_payoff,
    gamma_for_compliance_without_deductions,
    published_theta_frontier,
    theta_frontier,
)
from vat_game.config import build_parameters
from vat_game.dominance import buyer_gamma_threshold, buyer_theta_threshold, tie_band
from vat_game.model import (
    CANONICAL_EVENTS,
    AuditRegime,
    Event,
    SanctionBaseMode,
    Scenario,
    TaxPolicy,
    conservation_residual,
    defined_events,
    expected_payoff,
    payoff_event,
)
from vat_game.report import compute_appendix_table, diff_appendix_table

CORRECTED = SanctionBaseMode.CORRECTED
LITERAL = SanctionBaseMode.PAPER_LITERAL

ELEVEN_GAMMAS = [i / 10 for i in range(11)]


VERDICTS = []


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    VERDICTS.append(f"ACCEPTANCE {number}: {verdict} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_worked_example_table():
    start = time.perf_counter()
    policy, te = build_parameters("appendix", None, None)
    table = compute_appendix_table(policy, te)
    diffs = diff_appendix_table(table, tolerance=0.5)
    elapsed = time.perf_counter() - start
    report(
        1,
        not diffs and elapsed < 1.0,
        f"published 5x8 table reproduced within 0.5 "
        f"({len(diffs)} mismatches, {elapsed:.2f}s)",
    )


def test_criterion_2_frontier_anchors():
    start = time.perf_counter()
    policy, te = build_parameters("section6", None, None)
    anchors = {
        Event.EVADE_LT1: 0.18213,
        Event.EVADE_LT2: 0.068525,
        Event.EVADE_WT: 0.27869,
    }
    worst = 0.0
    for variant, want in anchors.items():
        line = published_theta_frontier(variant, policy, te, LITERAL)
        worst = max(worst, abs(line.intercept - want), abs(line.slope - (-0.25808)))
    crossing = gamma_for_compliance_without_deductions(
        Event.EVADE_LT1, policy, te, LITERAL
    )
    gamma_ok = abs(crossing.value - 0.70572) <= 0.01
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 5e-5 and gamma_ok and elapsed < 1.0,
        f"three intercepts + common slope within 5e-5 (worst {worst:.2e}), "
        f"full-compliance audit rate {crossing.value:.5f} ~ 0.70572 "
        f"({elapsed:.2f}s)",
    )


def test_criterion_3_buyer_gamma_anchor():
    policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=0.33)
    te = build_parameters("section6", None, None)[1]
    closed = buyer_gamma_threshold(policy, te).value
    comparison = oracle.Comparison(
        oracle.Agent.BUYER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)
    )
    root = oracle.oracle_threshold(
        "gamma", comparison, oracle.ParameterDraw(policy, te, "criterion3")
    ).value
    ok = abs(closed - 1.0 / 1.33) <= 1e-6 and abs(closed - root) <= 1e-6
    report(
        3,
        ok,
        f"buyer audit-rate bound {closed:.6f} = 1/1.33 and the oracle's root agrees "
        f"(|diff| {abs(closed - root):.2e})",
    )


def test_criterion_4_conservation():
    start = time.perf_counter()
    draws = list(oracle.iter_draws(seed=42, count=10_000))

    worst_cell = 0.0
    for draw in draws:
        band = tie_band(draw.te)
        for scenario in Scenario:
            for audited in (False, True):
                for event in defined_events(scenario, audited):
                    pv = payoff_event(scenario, audited, event, draw.policy, draw.te)
                    rel = abs(conservation_residual(pv, draw.te)) / band
                    worst_cell = max(worst_cell, rel)

    worst_mix = 0.0
    worst_literal = 0.0
    for draw in draws[::10]:
        band = tie_band(draw.te)
        for gamma in ELEVEN_GAMMAS:
            regime = AuditRegime(gamma)
            for event in CANONICAL_EVENTS:
                pv = expected_payoff(
                    Scenario.TAX, regime, event, draw.policy, draw.te, CORRECTED
                )
                rel = abs(conservation_residual(pv, draw.te)) / band
                worst_mix = max(worst_mix, rel)
            want = (
                gamma
                * draw.policy.v
                * (1.0 + draw.policy.s_v)
                * (draw.te.x_o - 1.0)
            )
            for event in (Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT):
                pv = expected_payoff(
                    Scenario.TAX, regime, event, draw.policy, draw.te, LITERAL
                )
                rel = abs(conservation_residual(pv, draw.te) - want) / band
                worst_literal = max(worst_literal, rel)

    elapsed = time.perf_counter() - start
    ok = (
        worst_cell <= 1.0
        and worst_mix <= 1.0
        and worst_literal <= 1.0
        and elapsed < 30.0
    )
    report(
        4,
        ok,
        f"10000 draws conserve surplus within the tie band (worst in bands: cells "
        f"{worst_cell:.2e}, mixtures {worst_mix:.2e}, literal-mode gap "
        f"{worst_literal:.2e}; {elapsed:.1f}s)",
    )


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    results = {
        mode: oracle.validate(seed=42, draws=10_000, mode=mode)
        for mode in SanctionBaseMode
    }
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and all(
        r.ok and r.max_threshold_deviation <= 1e-6 for r in results.values()
    )
    report(
        5,
        ok,
        "; ".join(
            f"{mode.value}: {r.best_response_checks} best-response checks, "
            f"{r.threshold_checks} threshold checks, {len(r.failures)} failures, "
            f"max deviation {r.max_threshold_deviation:.2e}"
            for mode, r in results.items()
        )
        + f" ({elapsed:.1f}s)",
    )


def test_criterion_6_frontier_classification():
    policy, te = build_parameters("section6", None, None)
    mismatches = 0
    checked = 0
    for mode in SanctionBaseMode:
        lines = {v: theta_frontier(v, policy, te, mode) for v in FRONTIER_VARIANTS}
        for i in range(101):
            theta = i / 100
            p = dataclasses.replace(policy, theta=theta)
            for j in range(101):
                gamma = j / 100
                margins = [theta - line.theta_at(gamma) for line in lines.values()]
                if any(abs(m) <= 1e-6 for m in margins):
                    continue
                checked += 1
                predicted_comply = all(m > 0.0 for m in margins)
                best = coalition_best_event(gamma, p, te, mode)
                if (best == (Event.COMPLY,)) != predicted_comply:
                    mismatches += 1
    lt1, lt2, wt = (
        published_theta_frontier(v, policy, te, LITERAL).intercept
        for v in (Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT)
    )
    ordering = lt2 < lt1 < wt
    report(
        6,
        mismatches == 0 and ordering,
        f"classification matches frontier sign at {checked} grid points x 2 "
        f"modes ({mismatches} mismatches); intercepts ordered "
        f"{lt2:.4f} < {lt1:.4f} < {wt:.4f}",
    )


def test_criterion_7_structure():
    policy, te = build_parameters("section6", None, None)

    worst_affine = 0.0
    for event in CANONICAL_EVENTS:
        lo = expected_payoff(Scenario.TAX, AuditRegime(0.0), event, policy, te)
        hi = expected_payoff(Scenario.TAX, AuditRegime(1.0), event, policy, te)
        for gamma in ELEVEN_GAMMAS:
            mixed = expected_payoff(
                Scenario.TAX, AuditRegime(gamma), event, policy, te
            )
            for got, a, b in zip(mixed, lo, hi):
                want = (1.0 - gamma) * a + gamma * b
                denom = max(1.0, abs(want))
                worst_affine = max(worst_affine, abs(got - want) / denom)
    affine_ok = worst_affine <= 1e-12

    vd = policy.v * policy.delta
    at_zero = buyer_theta_threshold(AuditRegime(0.0), policy, te).value
    at_one = buyer_theta_threshold(AuditRegime(1.0), policy, te).value
    exact_ok = (
        at_zero == vd / (1.0 + vd)
        and at_one == (vd - policy.v * (1.0 + policy.s_v)) / (1.0 + vd)
    )

    values = [
        buyer_theta_threshold(AuditRegime(g / 100), policy, te).value for g in range(101)
    ]
    monotone_ok = all(a > b for a, b in zip(values, values[1:]))

    report(
        7,
        affine_ok and exact_ok and monotone_ok,
        f"expected payoffs affine in audit rate to {worst_affine:.1e}; "
        f"deduction-share bound exact at audit rates 0/1 and strictly "
        f"decreasing over 101 audit rates",
    )
