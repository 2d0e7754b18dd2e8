import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vat_game.dominance import tie_band
from vat_game.model import (
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
    cell_streams,
    conservation_residual,
    defined_events,
    expected_payoff,
    government_revenue,
    payoff_event,
)
from vat_game.oracle import iter_draws

CORRECTED = SanctionBaseMode.CORRECTED
LITERAL = SanctionBaseMode.PAPER_LITERAL


policies = st.builds(
    TaxPolicy,
    t_s=st.floats(0.0, 0.6),
    t_b=st.floats(0.0, 0.6),
    v=st.floats(0.0, 0.6),
    delta=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 1.0),
    s_v=st.floats(0.0, 1.0),
    s_ys=st.floats(0.0, 1.0),
)

endowments = st.builds(
    TransactionEndowments,
    x_o=st.floats(0.0, 1e5),
    x_i=st.floats(0.0, 1e5),
    y_s=st.floats(0.0, 1e6),
    y_b=st.floats(0.0, 1e6),
)


class TestWorkedExample:
    """Anchor values from the five-column spreadsheet example."""

    def test_full_compliance(self, appendix_params):
        policy, te = appendix_params
        pv = payoff_event(Scenario.TAX, False, Event.COMPLY, policy, te)
        assert pv.buyer == pytest.approx(1200.0)
        assert pv.seller == pytest.approx(11400.0)
        assert pv.government == pytest.approx(12400.0)

    def test_no_taxes_benchmark(self, appendix_params):
        policy, te = appendix_params
        for event in CANONICAL_EVENTS:
            pv = payoff_event(Scenario.NO_TAXES, False, event, policy, te)
            assert pv == (10000.0, 15000.0, 0.0)

    def test_evade_lt1_unaudited(self, appendix_params):
        # hand check: seller 0.76*(10000 - 6100) + 10000 = 12964,
        # government 0.24*3900 + 6600 + 1100 = 8636
        policy, te = appendix_params
        pv = payoff_event(Scenario.TAX, False, Event.EVADE_LT1, policy, te)
        assert pv.buyer == pytest.approx(3400.0)
        assert pv.seller == pytest.approx(12964.0)
        assert pv.government == pytest.approx(8636.0)

    def test_evade_wt_audited(self, appendix_params):
        policy, te = appendix_params
        pv = payoff_event(Scenario.TAX, True, Event.EVADE_WT, policy, te)
        assert pv.buyer == pytest.approx(540.0)
        assert pv.seller == pytest.approx(9480.0)
        assert pv.government == pytest.approx(14980.0)
        assert pv.total() == pytest.approx(25000.0)

    def test_compliance_with_deductions(self, appendix_params):
        policy, te = appendix_params
        pv = payoff_event(Scenario.TAX_WITH_DEDUCTIONS, False, Event.COMPLY, policy, te)
        assert pv.buyer == pytest.approx(2420.0)
        assert pv.seller == pytest.approx(11400.0)
        assert pv.government == pytest.approx(11180.0)

    def test_appendix_last_transaction_variant(self, appendix_params):
        policy, te = appendix_params
        pv = payoff_event(Scenario.TAX, False, Event.EVADE_LT_APPENDIX, policy, te)
        assert pv.buyer == pytest.approx(3400.0)
        assert pv.seller == pytest.approx(12700.0)
        assert pv.government == pytest.approx(8900.0)


class TestExpectedPayoff:
    def test_gamma_zero_degenerates(self, appendix_params):
        policy, te = appendix_params
        mixed = expected_payoff(
            Scenario.TAX, AuditRegime(0.0), Event.EVADE_WT, policy, te, CORRECTED
        )
        assert mixed == payoff_event(Scenario.TAX, False, Event.EVADE_WT, policy, te)

    def test_gamma_one_degenerates(self, appendix_params):
        policy, te = appendix_params
        mixed = expected_payoff(
            Scenario.TAX, AuditRegime(1.0), Event.EVADE_LT2, policy, te, CORRECTED
        )
        audited = payoff_event(Scenario.TAX, True, Event.EVADE_LT2, policy, te)
        assert mixed == pytest.approx(audited)

    def test_half_mixture_buyer(self, appendix_params):
        policy, te = appendix_params
        mixed = expected_payoff(
            Scenario.TAX, AuditRegime(0.5), Event.EVADE_WT, policy, te, CORRECTED
        )
        assert mixed.buyer == pytest.approx((3400.0 + 540.0) / 2)
        assert mixed.buyer == pytest.approx(1970.0)

    @given(policy=policies, te=endowments, gamma=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_affine_in_gamma(self, policy, te, gamma):
        for event in CANONICAL_EVENTS:
            at_zero = expected_payoff(
                Scenario.TAX, AuditRegime(0.0), event, policy, te, CORRECTED
            )
            at_one = expected_payoff(
                Scenario.TAX, AuditRegime(1.0), event, policy, te, CORRECTED
            )
            mixed = expected_payoff(
                Scenario.TAX, AuditRegime(gamma), event, policy, te, CORRECTED
            )
            for got, lo, hi in zip(mixed, at_zero, at_one):
                want = (1.0 - gamma) * lo + gamma * hi
                assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


class TestConservation:
    @given(policy=policies, te=endowments)
    @settings(max_examples=300)
    def test_every_cell_conserves(self, policy, te):
        tol = tie_band(te)
        for scenario in Scenario:
            for audited in (False, True):
                for event in defined_events(scenario, audited):
                    pv = payoff_event(scenario, audited, event, policy, te)
                    assert abs(conservation_residual(pv, te)) <= tol

    @given(policy=policies, te=endowments, gamma=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_corrected_mixture_conserves(self, policy, te, gamma):
        tol = tie_band(te)
        for event in CANONICAL_EVENTS:
            pv = expected_payoff(
                Scenario.TAX, AuditRegime(gamma), event, policy, te, CORRECTED
            )
            assert abs(conservation_residual(pv, te)) <= tol

    @given(policy=policies, te=endowments, gamma=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_paper_literal_violation_is_exact(self, policy, te, gamma):
        # the literal sanction base drops x_o, so the buyer-side residual is
        # exactly gamma*v*(1+s_v)*(x_o - 1)
        tol = tie_band(te)
        expected = gamma * policy.v * (1.0 + policy.s_v) * (te.x_o - 1.0)
        for event in (Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT):
            pv = expected_payoff(
                Scenario.TAX, AuditRegime(gamma), event, policy, te, LITERAL
            )
            assert conservation_residual(pv, te) == pytest.approx(expected, abs=tol)

    def test_worked_example_residual_zero(self, appendix_params):
        policy, te = appendix_params
        pv = payoff_event(Scenario.TAX, False, Event.COMPLY, policy, te)
        assert conservation_residual(pv, te) == pytest.approx(0.0, abs=1e-9)
        assert pv.total() == pytest.approx(25000.0)


class TestStructure:
    @given(policy=policies, te=endowments)
    @settings(max_examples=100)
    def test_comply_is_audit_neutral(self, policy, te):
        for scenario in Scenario:
            unaudited = payoff_event(scenario, False, Event.COMPLY, policy, te)
            audited = payoff_event(scenario, True, Event.COMPLY, policy, te)
            assert unaudited == audited

    @given(policy=policies, te=endowments)
    @settings(max_examples=100)
    def test_deduction_scenario_only_changes_comply(self, policy, te):
        for audited in (False, True):
            for event in (Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT):
                tax = payoff_event(Scenario.TAX, audited, event, policy, te)
                td = payoff_event(
                    Scenario.TAX_WITH_DEDUCTIONS, audited, event, policy, te
                )
                assert tax == td

    @given(policy=policies, te=endowments)
    @settings(max_examples=100)
    def test_zero_theta_full_delta_comply_coincides(self, policy, te):
        import dataclasses

        p = dataclasses.replace(policy, theta=0.0, delta=1.0)
        tax = payoff_event(Scenario.TAX, False, Event.COMPLY, p, te)
        td = payoff_event(Scenario.TAX_WITH_DEDUCTIONS, False, Event.COMPLY, p, te)
        assert tax == td


class TestErrors:
    def test_appendix_variant_only_in_tax_unaudited(self, appendix_params):
        policy, te = appendix_params
        lt = Event.EVADE_LT_APPENDIX
        undefined = "only defined for the plain tax scenario without audit"
        for scenario in Scenario:
            for audited in (False, True):
                if scenario is Scenario.TAX and not audited:
                    continue
                for price in (cell_streams, payoff_event, government_revenue):
                    with pytest.raises(UndefinedEventError, match=undefined):
                        price(scenario, audited, lt, policy, te)
                # an audit rate above 0 prices the audited cell, 0 only the unaudited one
                for gamma in (0.37, 1.0) if audited else (0.0,):
                    for mode in SanctionBaseMode:
                        with pytest.raises(UndefinedEventError, match=undefined):
                            expected_payoff(scenario, AuditRegime(gamma), lt, policy, te, mode)

        plain, sanctioned = cell_streams(Scenario.TAX, False, lt, policy, te)
        assert sanctioned is None
        pv = payoff_event(Scenario.TAX, False, lt, policy, te)
        assert pv[:2] == plain[:2]
        assert government_revenue(Scenario.TAX, False, lt, policy, te) == plain[2:]
        assert expected_payoff(Scenario.TAX, AuditRegime(0.0), lt, policy, te) == pv
        assert abs(conservation_residual(pv, te)) <= 1e-9 * (te.y_b + te.y_s)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(NonFiniteInputError):
            TaxPolicy(t_s=math.nan, t_b=0.3, v=0.2)
        with pytest.raises(NonFiniteInputError):
            TransactionEndowments(x_o=math.inf, x_i=0.0, y_s=1.0, y_b=1.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            TaxPolicy(t_s=1.0, t_b=0.3, v=0.2)
        with pytest.raises(ValueError):
            TaxPolicy(t_s=0.2, t_b=0.3, v=0.2, s_v=-0.1)
        with pytest.raises(ValueError):
            TransactionEndowments(x_o=-1.0, x_i=0.0, y_s=1.0, y_b=1.0)
        with pytest.raises(ValueError):
            AuditRegime(1.5)


#: Recorded from the engine before its per-cell payoffs shared one kernel;
#: any change in an expression's operation order moves it.
ENGINE_DIGEST = "bef527812084e56e4bc830f820e7961b3e994e80181a9d125ae9fcc2d3e1b9c1"
DIGEST_GAMMAS = (0.0, 0.37, 1.0)


def _engine_outputs(policy, te):
    """Every payoff_event, government_revenue and expected_payoff output."""
    for scenario in Scenario:
        for audited in (False, True):
            for event in defined_events(scenario, audited):
                yield payoff_event(scenario, audited, event, policy, te)
                yield government_revenue(scenario, audited, event, policy, te)
        for mode in SanctionBaseMode:
            for gamma in DIGEST_GAMMAS:
                for event in defined_events(scenario, gamma > 0.0):
                    yield expected_payoff(
                        scenario, AuditRegime(gamma), event, policy, te, mode
                    )


def test_engine_matches_recorded_digest():
    digest = hashlib.sha256()
    for draw in iter_draws(42, 200):
        for values in _engine_outputs(draw.policy, draw.te):
            assert type(values) in (PayoffVector, GovernmentRevenue)
            digest.update(" ".join(float(x).hex() for x in values).encode() + b"\n")
    assert digest.hexdigest() == ENGINE_DIGEST


@pytest.mark.parametrize("mode", list(SanctionBaseMode), ids=lambda m: m.value)
def test_array_gamma_matches_scalar_bit_for_bit(mode):
    gammas = np.array([0.0, 0.37, 0.5, 1.0])
    regime = SimpleNamespace(gamma=gammas)
    for draw in iter_draws(7, 20):
        for scenario in Scenario:
            for event in CANONICAL_EVENTS:
                mixed = expected_payoff(scenario, regime, event, draw.policy, draw.te, mode)
                for j, gamma in enumerate(gammas):
                    scalar = expected_payoff(
                        scenario, AuditRegime(float(gamma)), event, draw.policy, draw.te, mode
                    )
                    for got, want in zip(mixed, scalar):
                        assert float(got[j]).hex() == want.hex(), (draw.tag, scenario, event)
