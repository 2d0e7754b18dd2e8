import dataclasses

import pytest

from vat_game.coalition import (
    COALITION_EVENTS,
    FRONTIER_VARIANTS,
    coalition_best_event,
    coalition_best_events_grid,
    coalition_payoff,
    coalition_payoff_grid,
    gamma_for_compliance_without_deductions,
    published_theta_frontier,
    theta_frontier,
)
from vat_game.dominance import Sentinel
from vat_game.model import Event, SanctionBaseMode, TaxPolicy, UndefinedEventError
from vat_game.oracle import iter_draws

CORRECTED = SanctionBaseMode.CORRECTED
LITERAL = SanctionBaseMode.PAPER_LITERAL


class TestCoalitionPayoff:
    def test_worked_example_payoffs(self, appendix_params):
        policy, te = appendix_params
        assert coalition_payoff(Event.COMPLY, 0.0, policy, te) == pytest.approx(13820.0)
        assert coalition_payoff(Event.EVADE_WT, 0.0, policy, te) == pytest.approx(16000.0)
        assert coalition_payoff(Event.EVADE_LT1, 0.0, policy, te) == pytest.approx(
            16364.0
        )
        assert coalition_payoff(Event.EVADE_LT2, 0.0, policy, te) == pytest.approx(
            14900.0
        )

    def test_appendix_variant_rejected(self, appendix_params):
        policy, te = appendix_params
        with pytest.raises(UndefinedEventError):
            coalition_payoff(Event.EVADE_LT_APPENDIX, 0.0, policy, te)

    def test_affine_in_theta_with_known_coefficient(self, section6_params):
        policy, te = section6_params
        lo = coalition_payoff(
            Event.COMPLY, 0.3, dataclasses.replace(policy, theta=0.0), te
        )
        hi = coalition_payoff(
            Event.COMPLY, 0.3, dataclasses.replace(policy, theta=1.0), te
        )
        assert hi - lo == pytest.approx(te.x_o * (1.0 + policy.v * policy.delta))


class TestPublishedFrontier:
    """The closed-form trade-off lines as printed, section-6 parameters."""

    def test_lt1_anchor(self, section6_params):
        policy, te = section6_params
        line = published_theta_frontier(Event.EVADE_LT1, policy, te, LITERAL)
        assert line.intercept == pytest.approx(0.18213, abs=5e-5)
        assert line.slope == pytest.approx(-0.25808, abs=5e-5)

    def test_lt2_anchor(self, section6_params):
        policy, te = section6_params
        line = published_theta_frontier(Event.EVADE_LT2, policy, te, LITERAL)
        assert line.intercept == pytest.approx(0.068525, abs=5e-5)
        assert line.slope == pytest.approx(-0.25808, abs=5e-5)

    def test_wt_anchor(self, section6_params):
        policy, te = section6_params
        line = published_theta_frontier(Event.EVADE_WT, policy, te, LITERAL)
        assert line.intercept == pytest.approx(0.27869, abs=5e-5)
        assert line.slope == pytest.approx(-0.25808, abs=5e-5)

    def test_corrected_mode_restores_xo_on_vat_sanction(self, section6_params):
        policy, te = section6_params
        line = published_theta_frontier(Event.EVADE_LT1, policy, te, CORRECTED)
        assert line.intercept == pytest.approx(0.18213, abs=5e-5)
        assert line.slope == pytest.approx(-0.49016, abs=5e-5)

    def test_intercept_ordering(self, section6_params):
        policy, te = section6_params
        lt1, lt2, wt = (
            published_theta_frontier(v, policy, te, LITERAL).intercept
            for v in (Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT)
        )
        assert lt2 < lt1 < wt


class TestPayoffDerivedFrontier:
    def test_wt_matches_published(self, section6_params):
        # the whole-transaction line is the one case where the printed
        # closed form is consistent with the payoff definitions
        policy, te = section6_params
        derived = theta_frontier(Event.EVADE_WT, policy, te, LITERAL)
        published = published_theta_frontier(Event.EVADE_WT, policy, te, LITERAL)
        assert derived.intercept == pytest.approx(published.intercept, abs=1e-12)
        assert derived.slope == pytest.approx(published.slope, abs=1e-12)

    def test_slope_agrees_with_published_in_both_modes(self, section6_params):
        policy, te = section6_params
        for mode in SanctionBaseMode:
            for variant in FRONTIER_VARIANTS:
                derived = theta_frontier(variant, policy, te, mode)
                published = published_theta_frontier(variant, policy, te, mode)
                assert derived.slope == pytest.approx(published.slope, abs=1e-9)

    def test_slope_identical_across_variants(self, section6_params):
        policy, te = section6_params
        for mode in SanctionBaseMode:
            slopes = [theta_frontier(v, policy, te, mode).slope for v in FRONTIER_VARIANTS]
            assert max(slopes) - min(slopes) <= 1e-12

    def test_classification_consistency_on_grid(self, section6_params):
        policy, te = section6_params
        for mode in SanctionBaseMode:
            lines = {v: theta_frontier(v, policy, te, mode) for v in FRONTIER_VARIANTS}
            for i in range(0, 21):
                theta = i / 20
                p = dataclasses.replace(policy, theta=theta)
                for j in range(0, 21):
                    gamma = j / 20
                    comply = coalition_payoff(Event.COMPLY, gamma, p, te, mode)
                    for variant, line in lines.items():
                        boundary = line.theta_at(gamma)
                        if abs(theta - boundary) <= 1e-6:
                            continue
                        evade = coalition_payoff(variant, gamma, p, te, mode)
                        assert (theta > boundary) == (comply > evade), (
                            mode, variant, theta, gamma,
                        )


class TestGammaForCompliance:
    def test_lt1_crossing_near_seventy_percent(self, section6_params):
        policy, te = section6_params
        result = gamma_for_compliance_without_deductions(
            Event.EVADE_LT1, policy, te, LITERAL
        )
        assert result.value == pytest.approx(0.70572, abs=0.01)
        assert result.feasible_in_unit_interval

    def test_wt_crossing_exceeds_one(self, section6_params):
        policy, te = section6_params
        result = gamma_for_compliance_without_deductions(
            Event.EVADE_WT, policy, te, LITERAL
        )
        assert result.value == pytest.approx(0.27869 / 0.25808, abs=1e-3)
        assert not result.feasible_in_unit_interval

    def test_nonpositive_intercept_needs_no_audit(self, section6_params):
        # crank theta-side convenience down until the LT2 intercept is negative
        policy, te = section6_params
        p = dataclasses.replace(policy, delta=0.0)
        result = gamma_for_compliance_without_deductions(Event.EVADE_LT2, p, te, LITERAL)
        assert result.sentinel is Sentinel.VALUE
        assert result.value == 0.0

    def test_flat_frontier_is_undefined(self, section6_params):
        # without taxes the frontier is flat and its intercept 0; flat wins
        policy, te = section6_params
        p = dataclasses.replace(policy, t_s=0.0, v=0.0)
        for mode in SanctionBaseMode:
            for variant in FRONTIER_VARIANTS:
                result = gamma_for_compliance_without_deductions(variant, p, te, mode)
                assert result.sentinel is Sentinel.UNDEFINED
                assert not result.feasible_in_unit_interval


class TestCoalitionBestEvent:
    def test_worked_example_prefers_lt1(self, appendix_params):
        policy, te = appendix_params
        assert coalition_best_event(0.0, policy, te) == (Event.EVADE_LT1,)

    def test_certain_audit_with_sanctions_complies(self, section6_params):
        policy, te = section6_params
        p = dataclasses.replace(policy, theta=0.0)
        assert coalition_best_event(1.0, p, te, CORRECTED) == (Event.COMPLY,)

    def test_theta_above_every_payoff_frontier_complies(self, section6_params):
        policy, te = section6_params
        highest = max(
            theta_frontier(v, policy, te, CORRECTED).intercept
            for v in FRONTIER_VARIANTS
        )
        p = dataclasses.replace(policy, theta=min(1.0, highest + 0.01))
        assert coalition_best_event(0.0, p, te, CORRECTED) == (Event.COMPLY,)


class TestBestEventsGrid:
    """The array path against the scalar path, cell by cell."""

    @pytest.mark.parametrize("mode", list(SanctionBaseMode), ids=lambda m: m.value)
    def test_matches_scalar_path_on_draws(self, mode):
        ties = 0
        for draw in iter_draws(5, 50):
            policy, te = draw.policy, draw.te
            # At the highest frontier's intercept and gamma = 0 the best
            # evasion variant and COMPLY tie within the tie band.
            binding = max(
                theta_frontier(v, policy, te, mode).intercept for v in FRONTIER_VARIANTS
            )
            binding_admissible = 0.0 <= binding <= 1.0
            thetas = [0.0, 0.05, 0.5, 1.0] + ([binding] if binding_admissible else [])
            gammas = [0.0, 0.3, 0.7, 1.0]
            payoffs = coalition_payoff_grid(thetas, gammas, policy, te, mode)
            winners = coalition_best_events_grid(thetas, gammas, policy, te, mode)
            assert payoffs.shape == (len(COALITION_EVENTS), len(thetas), len(gammas))
            assert winners.shape == (len(thetas), len(gammas))
            for i, theta in enumerate(thetas):
                p = dataclasses.replace(policy, theta=theta)
                for j, gamma in enumerate(gammas):
                    best = coalition_best_event(gamma, p, te, mode)
                    assert COALITION_EVENTS[winners[i, j]] is best[0], (draw.tag, theta, gamma)
                    for k, event in enumerate(COALITION_EVENTS):
                        scalar = coalition_payoff(event, gamma, p, te, mode)
                        assert float(payoffs[k, i, j]).hex() == scalar.hex()
            if binding_admissible:
                tied = coalition_best_event(
                    0.0, dataclasses.replace(policy, theta=binding), te, mode
                )
                assert tied[0] is Event.COMPLY and len(tied) >= 2, draw.tag
                assert winners[4, 0] == 0
                ties += 1
        assert ties > 0

    @pytest.mark.parametrize(
        "thetas, gammas",
        [
            ([0.0, 1.5], [0.5]),
            ([0.5], [-0.1, 0.5]),
            ([float("nan")], [0.5]),
            ([0.5], [0.2, float("inf")]),
            ([], [0.5]),
        ],
        ids=["theta-above-1", "gamma-below-0", "theta-nan", "gamma-inf", "empty"],
    )
    def test_inadmissible_axis_rejected(self, section6_params, thetas, gammas):
        policy, te = section6_params
        with pytest.raises(ValueError):
            coalition_best_events_grid(thetas, gammas, policy, te)
