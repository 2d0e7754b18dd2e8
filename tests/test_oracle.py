import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from vat_game import dominance, oracle
from vat_game.dominance import Agent, Sentinel
from vat_game.model import (
    CANONICAL_EVENTS,
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


def scalar_draws(seed, count):
    """The draw law as one rng.uniform call per parameter, in draw order.

    Yields (policy fields, te fields) per draw; `oracle.iter_draws` must
    reproduce it bit for bit.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x_o = float(10.0 ** rng.uniform(1.0, 5.0))
        policy = tuple(float(rng.uniform(0.0, 0.6)) for _ in range(3)) + tuple(
            float(rng.uniform(0.0, 1.0)) for _ in range(4)
        )  # t_s, t_b, v, then delta, theta, s_v, s_ys
        te = (
            x_o,
            float(rng.uniform(0.0, x_o)),
            float(10.0 ** rng.uniform(3.0, 6.0)),
            float(10.0 ** rng.uniform(3.0, 6.0)),
        )
        yield policy, te


def rule_best_response(agent, scenario, regime, draw, mode):
    """The closed-form rule of `validate` on one draw."""
    gains = oracle._rule_gains(agent, scenario, regime.gamma, draw.policy, draw.te, mode)
    tied = dominance.tied_for_best(np.broadcast_arrays(*gains), dominance.tie_band(draw.te))
    return tuple(e for e, t in zip(CANONICAL_EVENTS, tied) if t)


def shift_buyer_gamma_threshold(monkeypatch, shift):
    """Move every value of `dominance.buyer_gamma_threshold` by `shift`.

    `validate` reads it on its arrays, and a caller on one draw, so both see
    the shift.
    """
    closed_form = dominance.buyer_gamma_threshold

    def shifted(policy, te, mode=CORRECTED):
        result = closed_form(policy, te, mode)
        return result._replace(value=result.value + shift)

    monkeypatch.setattr(dominance, "buyer_gamma_threshold", shifted)


def report_digest(report):
    """sha256 of what a validate report finds, its failures' text and order included."""
    found = (
        report.best_response_checks,
        report.threshold_checks,
        report.max_threshold_deviation.hex(),
        report.failures,
    )
    return hashlib.sha256(repr(found).encode()).hexdigest()


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

    def test_array_draws_equal_scalar_draws(self):
        # 10 000 draws span three blocks of BLOCK_DRAWS
        hexes = lambda values: [float(x).hex() for x in values]
        draws = oracle.iter_draws(seed=42, count=10_000)
        for i, (draw, (policy, te)) in enumerate(zip(draws, scalar_draws(42, 10_000))):
            assert draw.tag == f"seed42/{i}"
            assert hexes(dataclasses.astuple(draw.policy)) == hexes(policy), i
            assert hexes(dataclasses.astuple(draw.te)) == hexes(te), i
        assert i == 9_999


class TestBestResponse:
    def test_matches_dominance_layer_on_batch(self):
        # the closed-form rule of validate against the engine's enumeration
        regimes = (AuditRegime(0.0), AuditRegime(0.37), AuditRegime(1.0))
        for mode in SanctionBaseMode:
            for draw in oracle.iter_draws(seed=3, count=100):
                for scenario in Scenario:
                    for regime in regimes:
                        for agent in Agent:
                            assert rule_best_response(
                                agent, scenario, regime, draw, mode
                            ) == dominance.dominant_events(
                                agent, scenario, regime, draw.policy, draw.te, mode
                            ), (draw.tag, mode, agent, scenario, regime)

    @pytest.mark.parametrize("bands, mismatches", [(0.5, 0), (2.0, 3 * 20)])
    def test_perturbed_seller_gain_is_reported(self, monkeypatch, bands, mismatches):
        # Without taxes every event ties. Lowering the seller's lt1 gain by
        # more than the tie band takes it out of the rule's tie set at all
        # three audit rates of every draw, and by less leaves it in.
        rule_gains = oracle._rule_gains

        def perturbed(agent, scenario, gamma, policy, te, mode):
            gains = list(rule_gains(agent, scenario, gamma, policy, te, mode))
            if agent is Agent.SELLER and scenario is Scenario.NO_TAXES:
                gains[1] = gains[1] - bands * dominance.tie_band(te)
            return gains

        monkeypatch.setattr(oracle, "_rule_gains", perturbed)
        report = oracle.validate(seed=5, draws=20)
        assert report.best_response_checks == 20 * 18
        assert len(report.failures) == mismatches
        for message in report.failures:
            assert message.startswith("best-response mismatch [seed5/")
            assert " seller no-taxes gamma=" in message
            assert message.endswith(
                "analytic=['comply', 'evade-lt2', 'evade-wt'] "
                "oracle=['comply', 'evade-lt1', 'evade-lt2', 'evade-wt']"
            )

    def test_certain_audit_forces_compliance(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=0.3, s_ys=0.3)
        te = TransactionEndowments(x_o=100.0, x_i=50.0, y_s=200.0, y_b=400.0)
        draw = fixed_draw(policy, te)
        for agent in Agent:
            assert oracle.oracle_best_response(
                agent, Scenario.TAX, AuditRegime(1.0), draw
            ) == (Event.COMPLY,)


WT_COMPARISON = oracle.Comparison(
    Agent.BUYER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, AuditRegime(0.0)
)
FIXED_DRAW = fixed_draw(
    TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=0.33),
    TransactionEndowments(x_o=100.0, x_i=50.0, y_s=200.0, y_b=400.0),
)


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

    def test_non_single_crossing_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(
            oracle, "_margin_fn", lambda *args: lambda x: (x - 0.2) * (x - 0.7)
        )
        with pytest.raises(oracle.NonMonotoneError, match="not affine"):
            oracle.oracle_threshold("gamma", WT_COMPARISON, FIXED_DRAW)

    @pytest.mark.parametrize(
        "margin",
        [
            lambda x: np.exp(x) - 2.0,
            lambda x: x**3 - 0.3,
            lambda x: 0.3 - x**3,
        ],
        ids=["exp", "cube", "falling-cube"],
    )
    def test_non_affine_margin_is_refused(self, monkeypatch, margin):
        monkeypatch.setattr(oracle, "_margin_fn", lambda *args: margin)
        with pytest.raises(oracle.NonMonotoneError, match="off the secant"):
            oracle.oracle_threshold("gamma", WT_COMPARISON, FIXED_DRAW)

    def test_root_between_adjacent_floats(self, monkeypatch):
        # Near 1.2e6 adjacent floats are 2.3e-10 apart, and the margin is
        # zero at neither.
        monkeypatch.setattr(
            oracle, "_margin_fn", lambda *args: lambda x: (x - 1234567.3) + 1e-11
        )
        result = oracle.oracle_threshold("x_o", WT_COMPARISON, FIXED_DRAW, lo=1e6, hi=2e6)
        assert abs(result.value - 1234567.3) <= 1e-9

    @pytest.mark.parametrize(
        "margin, sentinel",
        [
            (lambda x: x - 0.2, Sentinel.ALWAYS_SATISFIED),
            (lambda x: 1.0 - x, Sentinel.ALWAYS_SATISFIED),
            (lambda x: 0.2 - x, Sentinel.NEVER_SATISFIED),
        ],
        ids=["zero-at-lo", "zero-at-hi", "falling-from-zero"],
    )
    def test_zero_at_one_end_reports_the_sign_elsewhere(self, monkeypatch, margin, sentinel):
        monkeypatch.setattr(oracle, "_margin_fn", lambda *args: margin)
        result = oracle.oracle_threshold("theta", WT_COMPARISON, FIXED_DRAW, lo=0.2, hi=1.0)
        assert result.sentinel is sentinel

    @pytest.mark.parametrize(
        "margin", [lambda x: 0.0 * x, lambda x: 0.0], ids=["array", "scalar"]
    )
    def test_identically_zero_margin_is_a_tie_at_lo(self, monkeypatch, margin):
        monkeypatch.setattr(oracle, "_margin_fn", lambda *args: margin)
        result = oracle.oracle_threshold("theta", WT_COMPARISON, FIXED_DRAW, lo=0.2, hi=1.0)
        assert result.sentinel is Sentinel.VALUE and result.value == 0.2


class TestMargin:
    @pytest.mark.parametrize("mode", list(SanctionBaseMode))
    def test_array_margin_equals_float_margin(self, mode):
        for draw in oracle.iter_draws(seed=5, count=30):
            for case in oracle._THRESHOLD_CASES:
                margin = oracle._margin_fn(
                    case.varied, case.comparison, draw.policy, draw.te, mode
                )
                xs = np.linspace(case.lo, case.hi, 33)
                want = [margin(float(x)) for x in xs]
                assert np.broadcast_to(margin(xs), xs.shape).tolist() == want, case.name

    @pytest.mark.parametrize("mode", list(SanctionBaseMode))
    def test_margin_over_complying_is_minus_the_rule_gain(self, mode):
        # `compare` runs the engine; `_rule_gains` is the closed-form rule,
        # which never calls it. Audit rates form a column, draws a row.
        (_, policy, te), = oracle._blocks(seed=14, count=2000)
        gammas = np.array([[0.0], [0.37], [1.0]])
        regime = SimpleNamespace(gamma=gammas)
        band = dominance.tie_band(te)
        for scenario in Scenario:
            for agent in Agent:
                gains = oracle._rule_gains(agent, scenario, gammas, policy, te, mode)
                for event, gain in zip(CANONICAL_EVENTS, gains):
                    margin = dominance.compare(
                        agent, Event.COMPLY, event, scenario, regime, policy, te, mode
                    )
                    gap = np.abs(margin + gain) / band
                    assert gap.shape == (3, 2000)
                    assert gap.max() <= 0.01, (agent, scenario, event)

    @pytest.mark.parametrize("mode", list(SanctionBaseMode))
    def test_block_margin_equals_per_draw_margin(self, mode):
        # a column of parameter values against a row of draws, bit for bit
        (start, policy, te), = oracle._blocks(seed=6, count=25)
        draws = list(oracle.iter_draws(seed=6, count=25))
        xs = np.array([[0.0], [0.25], [0.999]])
        for case in oracle._THRESHOLD_CASES:
            block = oracle._margin_fn(case.varied, case.comparison, policy, te, mode)(xs)
            for k, draw in enumerate(draws):
                one = oracle._margin_fn(case.varied, case.comparison, draw.policy, draw.te, mode)
                assert block[:, k].tolist() == [one(float(x)) for x in xs[:, 0]], case.name

    @pytest.mark.parametrize("mode", list(SanctionBaseMode))
    def test_table_margins_equal_compare(self, mode):
        # each case's rows of the stacked payoff tables against `compare` on
        # one draw at the same parameter point, bit for bit
        (_, policy, te), = oracle._blocks(seed=6, count=25)
        tables = {s: oracle._payoff_table(s, policy, te, mode) for s in oracle._SCENARIOS}
        margins = oracle._case_margins(tables)
        draws = list(oracle.iter_draws(seed=6, count=25))
        for c, case in enumerate(oracle._THRESHOLD_CASES):
            comparison = case.comparison
            head = (comparison.agent, comparison.first, comparison.second, comparison.scenario)
            for end, x in enumerate((case.lo, 0.5 * (case.lo + case.hi), case.hi)):
                for k, draw in enumerate(draws):
                    if case.varied == "gamma":
                        at = (AuditRegime(x), draw.policy)
                    else:
                        at = (
                            comparison.regime,
                            dataclasses.replace(draw.policy, **{case.varied: x}),
                        )
                    want = dominance.compare(*head, *at, draw.te, mode)
                    assert margins[end, c, k].hex() == want.hex(), (case.name, end, k)

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
        report = oracle.validate(seed=42, draws=200)
        assert report.ok
        assert report.best_response_checks == 200 * 3 * 3 * 2
        assert report.threshold_checks > 0
        assert report.max_threshold_deviation <= 1e-6

    def test_paper_literal_batch_passes(self):
        report = oracle.validate(seed=42, draws=200, mode=SanctionBaseMode.PAPER_LITERAL)
        assert report.ok, report.failures[:3]
        assert report.threshold_checks > 0

    def test_report_is_deterministic(self):
        a = oracle.validate(seed=9, draws=50)
        b = oracle.validate(seed=9, draws=50)
        assert a.summary_lines() == b.summary_lines()

    def test_closed_form_off_by_1e_5_is_reported(self, monkeypatch):
        in_range = [
            draw.tag
            for draw in oracle.iter_draws(seed=8, count=60)
            if dominance.buyer_gamma_threshold(draw.policy, draw.te).value + 1e-5 <= 1.0
        ]
        assert in_range
        shift_buyer_gamma_threshold(monkeypatch, 1e-5)
        report = oracle.validate(seed=8, draws=60)
        assert report.failures == [
            message
            for message in report.failures
            if message.startswith("threshold mismatch [")
            and " buyer_gamma_threshold: analytic=" in message
        ]
        assert [m.split("[")[1].split("]")[0] for m in report.failures] == in_range
        assert report.max_threshold_deviation == pytest.approx(1e-5, rel=1e-3)

    def test_closed_form_inside_a_range_without_root_is_reported(self, monkeypatch):
        # t_s* = v*x_i/(x_o - x_i) lies above the range [0, 0.999] on some
        # draws; there the margin keeps one sign and the oracle finds none.
        outside = {
            draw.tag
            for draw in oracle.iter_draws(seed=12, count=40)
            if dominance.seller_tax_threshold(draw.policy, draw.te).value > 0.999
        }
        monkeypatch.setattr(
            dominance, "seller_tax_threshold", lambda policy, te: dominance.ThresholdResult(0.5)
        )
        report = oracle.validate(seed=12, draws=40)
        sentinels = {
            m.split("[")[1].split("]")[0]
            for m in report.failures
            if m.startswith("threshold sentinel mismatch [")
        }
        assert outside and sentinels == outside
        assert all(" seller_tax_threshold: analytic=0.5 " in m for m in report.failures)

    def test_non_affine_margin_is_reported(self, monkeypatch):
        # every case's margin plus the square of its parameter, at lo, the
        # midpoint and hi: [end, case, draw] as `_case_margins` gives them
        case_margins = oracle._case_margins
        xs = np.array(
            [[c.lo, 0.5 * (c.lo + c.hi), c.hi] for c in oracle._THRESHOLD_CASES]
        ).T[:, :, None]
        monkeypatch.setattr(
            oracle, "_case_margins", lambda tables: case_margins(tables) + xs**2
        )
        report = oracle.validate(seed=13, draws=10)
        assert report.threshold_checks == 0
        assert report.failures
        assert all(m.startswith("non-affine margin [seed13/") for m in report.failures)

    @pytest.mark.parametrize(
        "seed, mode, digest",
        [
            (1, "corrected", "6948ca219f71f5b65355f17990e5193bcb1e59ab627ecd6000120815055c1af3"),
            (1, "paper-literal", "a0e63d63dc96abaf7bdb80c719b6af23cd9a2b5a537b26f0083610c5b84706f9"),
            (42, "corrected", "48787e8d1b2392b94b5d88f055f1e1eb00405434ee3a7d01673cf95362cd61b8"),
            (42, "paper-literal", "26b7a5256fc986c133220ef719c0ba1d847e6fe3beb9ae29c2257a5f4f80ee96"),
            (189, "corrected", "a1201e30f90dde396f46ee82d4d3e2312e036cfe70aba3639a4f960f57c537e0"),
            (189, "paper-literal", "6efe381922fd7aaa2caed4bf761c034449a5590f6eeeb55095272efe2f405c6d"),
            (300, "corrected", "19e4318e634b2c08bc16e095b0d3324a3e756186d437383c2593b706540a8c8f"),
            (300, "paper-literal", "b606c2de58e8e2c536c29685723f0eccbb1d09738a2ec14649e95a8a9efe847a"),
        ],
    )
    def test_report_is_pinned(self, seed, mode, digest):
        # Recorded with scalar closed forms per draw and one margin call per
        # case, so any other way of evaluating them must keep the reports bit
        # for bit. Seed 189 holds a root 9.44e-7 off its closed form (draw
        # 4600, seller_gamma_threshold_ewt): drift in the root arithmetic shows.
        report = oracle.validate(seed=seed, draws=10_000, mode=SanctionBaseMode(mode))
        assert report_digest(report) == digest

    @pytest.mark.parametrize(
        "mode, failures, digest",
        [
            ("corrected", 60, "a64ac58f5765b5f0262e9be71c99b20fe4c69801009cde658c65896fbc07440f"),
            ("paper-literal", 0, "ba8bedc2cd39a81b26248692ef7d38030b3fed1d732e716bfd85e7df7e89117a"),
        ],
    )
    def test_failure_report_is_pinned(self, monkeypatch, mode, failures, digest):
        # the failures' text and order, pinned as in test_report_is_pinned
        shift_buyer_gamma_threshold(monkeypatch, 1e-5)
        report = oracle.validate(seed=8, draws=60, mode=SanctionBaseMode(mode))
        assert len(report.failures) == failures
        assert report_digest(report) == digest

    def test_block_size_does_not_change_the_report(self, monkeypatch):
        # the shifted closed form gives failures, whose order must hold too
        shift_buyer_gamma_threshold(monkeypatch, 1e-5)
        reports = []
        for block in (oracle.BLOCK_DRAWS, 7):
            monkeypatch.setattr(oracle, "BLOCK_DRAWS", block)
            reports.append(
                [
                    oracle.validate(seed=10, draws=50, mode=mode)
                    for mode in SanctionBaseMode
                ]
            )
        assert reports[0][0].failures
        assert reports[1] == reports[0]
