import dataclasses
import math

import numpy as np
import pytest

from vat_game import dominance, oracle
from vat_game.dominance import Agent, Sentinel
from vat_game.model import (
    AuditRegime,
    Event,
    SanctionBaseMode,
    Scenario,
    TaxPolicy,
    TransactionEndowments,
)

CORRECTED = SanctionBaseMode.CORRECTED


def fixed_draw(policy, te, tag="fixed"):
    return oracle.ParameterDraw(policy, te, tag)


class TestDraws:
    def test_deterministic_sequence(self):
        first = list(oracle.iter_draws(seed=7, count=25))
        second = list(oracle.iter_draws(seed=7, count=25))
        assert first == second
        assert first[0].tag == "seed7/0"

    def test_draws_are_admissible(self):
        for draw in oracle.iter_draws(seed=11, count=100):
            assert 0.0 <= draw.policy.v < 1.0
            assert 0.0 <= draw.te.x_i <= draw.te.x_o
            assert 10.0 <= draw.te.x_o <= 1e5


class TestBestResponse:
    def test_matches_dominance_layer_on_batch(self):
        regimes = (AuditRegime(0.0), AuditRegime(0.37), AuditRegime(1.0))
        for draw in oracle.iter_draws(seed=3, count=100):
            for scenario in Scenario:
                for regime in regimes:
                    for agent in Agent:
                        assert oracle.oracle_best_response(
                            agent, scenario, regime, draw
                        ) == dominance.dominant_events(
                            agent, scenario, regime, draw.policy, draw.te
                        )

    def test_certain_audit_forces_compliance(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=0.3, s_ys=0.3)
        te = TransactionEndowments(x_o=100.0, x_i=50.0, y_s=200.0, y_b=400.0)
        draw = fixed_draw(policy, te)
        for agent in Agent:
            assert oracle.oracle_best_response(
                agent, Scenario.TAX, AuditRegime(1.0), draw
            ) == (Event.COMPLY,)


class TestThresholdBisection:
    def test_seller_tax_threshold(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22)
        te = TransactionEndowments(
            x_o=10000.0, x_i=5000.0, y_s=10000.0, y_b=20000.0
        )
        comparison = oracle.Comparison(
            Agent.SELLER, Event.COMPLY, Event.EVADE_LT2, Scenario.TAX, AuditRegime(0.0)
        )
        result = oracle.oracle_threshold(
            "t_s", comparison, fixed_draw(policy, te), lo=0.0, hi=0.999
        )
        assert result.value == pytest.approx(0.22, abs=1e-8)

    def test_buyer_gamma_threshold(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=0.33)
        te = TransactionEndowments(x_o=100.0, x_i=50.0, y_s=200.0, y_b=400.0)
        comparison = oracle.Comparison(
            Agent.BUYER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)
        )
        result = oracle.oracle_threshold("gamma", comparison, fixed_draw(policy, te))
        assert result.value == pytest.approx(1.0 / 1.33, abs=1e-6)
        assert result.value == pytest.approx(0.75188, abs=1e-5)

    def test_buyer_theta_threshold(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, delta=1.0)
        te = TransactionEndowments(x_o=100.0, x_i=50.0, y_s=200.0, y_b=400.0)
        comparison = oracle.Comparison(
            Agent.BUYER,
            Event.COMPLY,
            Event.EVADE_LT1,
            Scenario.TAX_WITH_DEDUCTIONS,
            AuditRegime(0.0),
        )
        result = oracle.oracle_threshold("theta", comparison, fixed_draw(policy, te))
        assert result.value == pytest.approx(0.180328, abs=1e-6)

    def test_no_crossing_reports_sentinel(self):
        # sanctions keep compliance strictly better for every gamma
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_ys=0.3)
        te = TransactionEndowments(x_o=100.0, x_i=95.0, y_s=200.0, y_b=400.0)
        comparison = oracle.Comparison(
            Agent.SELLER, Event.COMPLY, Event.EVADE_LT2, Scenario.TAX, AuditRegime(0.0)
        )
        result = oracle.oracle_threshold("gamma", comparison, fixed_draw(policy, te))
        assert result.sentinel is Sentinel.ALWAYS_SATISFIED

    def test_non_single_crossing_fails_loudly(self):
        with pytest.raises(oracle.NonMonotoneError):
            oracle.bisect_single_crossing(
                lambda x: np.sin(4.0 * np.pi * x), 0.0, 1.0
            )

    @pytest.mark.parametrize(
        "margin, root",
        [
            (lambda x: np.exp(x) - 2.0, math.log(2.0)),
            (lambda x: x**3 - 0.3, 0.3 ** (1.0 / 3.0)),
            (lambda x: 0.3 - x**3, 0.3 ** (1.0 / 3.0)),
        ],
        ids=["exp", "cube", "falling-cube"],
    )
    def test_non_affine_margin_root(self, margin, root):
        scalar_calls = []

        def counted(x):
            if np.ndim(x) == 0:
                scalar_calls.append(x)
            return margin(x)

        result = oracle.bisect_single_crossing(counted, 0.0, 1.0)
        assert abs(result.value - root) <= oracle.BISECT_TOL
        # at most about twice the steps of bisection on one sample interval
        width = 1.0 / (oracle.MONOTONE_SAMPLES - 1)
        assert len(scalar_calls) <= 2 * math.ceil(math.log2(width / oracle.BISECT_TOL)) + 1

    def test_root_between_adjacent_floats(self):
        # Near 1.2e6 adjacent floats are 2.3e-10 apart, more than BISECT_TOL,
        # and the margin is zero at neither.
        calls = []

        def margin(x):
            calls.append(x)
            assert len(calls) < 200, "the search does not terminate"
            return (x - 1234567.3) + 1e-11

        result = oracle.bisect_single_crossing(margin, 1e6, 2e6)
        assert abs(result.value - 1234567.3) <= 1e-9

    def test_first_zero_sample_is_the_threshold(self):
        # zero at lo, then a sign change further on: the zero wins
        result = oracle.bisect_single_crossing(lambda x: (x - 0.2) * (0.7 - x), 0.2, 1.0)
        assert result.value == 0.2

    @pytest.mark.parametrize(
        "margin", [lambda x: 0.0 * x, lambda x: 0.0], ids=["array", "scalar"]
    )
    def test_identically_zero_margin_is_a_tie_at_lo(self, margin):
        result = oracle.bisect_single_crossing(margin, 0.2, 1.0)
        assert result.sentinel is Sentinel.VALUE and result.value == 0.2


class TestMargin:
    @pytest.mark.parametrize("mode", list(SanctionBaseMode))
    def test_array_margin_equals_float_margin(self, mode):
        for draw in oracle.iter_draws(seed=5, count=30):
            for name, param, make_cmp, _, (lo, hi), _ in oracle._THRESHOLD_CASES:
                comparison = make_cmp(draw)
                margin = oracle._margin_fn(param, comparison, draw, mode, lo, hi)
                xs = np.linspace(lo, hi, oracle.MONOTONE_SAMPLES)
                want = [margin(float(x)) for x in xs]
                assert np.broadcast_to(margin(xs), xs.shape).tolist() == want, name
                # the float margin is the comparison's own margin
                x = float(xs[7])
                if param == "gamma":
                    regime, policy, te = AuditRegime(x), draw.policy, draw.te
                elif hasattr(draw.policy, param):
                    regime = comparison.regime
                    policy = dataclasses.replace(draw.policy, **{param: x})
                    te = draw.te
                else:
                    regime, policy = comparison.regime, draw.policy
                    te = dataclasses.replace(draw.te, **{param: x})
                assert want[7] == dominance.compare(
                    comparison.agent, comparison.first, comparison.second,
                    comparison.scenario, regime, policy, te, mode,
                ).margin, name

    def test_range_validated_at_its_ends(self):
        draw = next(oracle.iter_draws(seed=1, count=1))
        comparison = oracle.Comparison(
            Agent.BUYER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)
        )
        with pytest.raises(ValueError, match="gamma"):
            oracle.oracle_threshold("gamma", comparison, draw, lo=0.0, hi=1.5)
        with pytest.raises(ValueError, match="unknown parameter"):
            oracle.oracle_threshold("tau", comparison, draw)


class TestValidate:
    def test_small_batch_passes(self):
        report = oracle.validate(seed=42, draws=200, thresholds_every=4)
        assert report.ok
        assert report.best_response_checks == 200 * 3 * 3 * 2
        assert report.threshold_checks > 0
        assert report.max_threshold_deviation <= 1e-6

    def test_paper_literal_batch_passes(self):
        report = oracle.validate(
            seed=42, draws=200, mode=SanctionBaseMode.PAPER_LITERAL, thresholds_every=4
        )
        assert report.ok, report.failures[:3]
        assert report.threshold_checks > 0

    def test_report_is_deterministic(self):
        a = oracle.validate(seed=9, draws=50, thresholds_every=5)
        b = oracle.validate(seed=9, draws=50, thresholds_every=5)
        assert a.summary_lines() == b.summary_lines()
