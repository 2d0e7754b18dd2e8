import dataclasses
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from vat_game import dominance, oracle
from vat_game.coalition import (
    COALITION_EVENTS,
    coalition_best_event,
    coalition_best_events_grid,
)
from vat_game.dominance import (
    Agent,
    Sentinel,
    ThresholdResult,
    buyer_gamma_threshold,
    buyer_theta_threshold,
    compare,
    dominant_events,
    seller_gamma_threshold_elt2,
    seller_gamma_threshold_ewt,
    seller_tax_threshold,
    tie_band,
    vat_rate_threshold,
)
from vat_game.model import (
    CANONICAL_EVENTS,
    AuditRegime,
    Event,
    SanctionBaseMode,
    Scenario,
    TaxPolicy,
    TransactionEndowments,
)

NO_AUDIT = AuditRegime(0.0)
CERTAIN = AuditRegime(1.0)
CORRECTED = SanctionBaseMode.CORRECTED


def small_te(x_o=100.0, x_i=50.0):
    return TransactionEndowments(x_o=x_o, x_i=x_i, y_s=200.0, y_b=400.0)


class TestCompare:
    def test_buyer_prefers_evasion_without_audit(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22)
        margin = compare(
            Agent.BUYER, Event.COMPLY, Event.EVADE_LT1, Scenario.TAX, NO_AUDIT,
            policy, small_te(),
        )
        assert margin < -tie_band(small_te())
        assert margin == pytest.approx(-policy.v * 100.0)

    def test_seller_complies_under_certain_audit(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=0.3, s_ys=0.3)
        margin = compare(
            Agent.SELLER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX, CERTAIN,
            policy, small_te(),
        )
        assert margin > tie_band(small_te())

    def test_zero_vat_makes_buyer_indifferent(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.0)
        margin = compare(
            Agent.BUYER, Event.COMPLY, Event.EVADE_LT1, Scenario.TAX, NO_AUDIT,
            policy, small_te(),
        )
        assert abs(margin) <= tie_band(small_te())


class TestSellerTaxThreshold:
    def test_worked_values(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22)
        te = TransactionEndowments(x_o=10000.0, x_i=5000.0, y_s=10000.0, y_b=20000.0)
        result = seller_tax_threshold(policy, te)
        assert result.value == pytest.approx(0.22)

    def test_no_input_costs(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22)
        result = seller_tax_threshold(policy, small_te(x_i=0.0))
        assert result.value == 0.0

    def test_zero_value_transaction_undefined(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22)
        result = seller_tax_threshold(policy, small_te(x_o=50.0, x_i=50.0))
        assert result.sentinel is Sentinel.UNDEFINED

    def test_sign_flip_at_threshold(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22)
        te = small_te()
        star = seller_tax_threshold(policy, te).value
        lo = compare(
            Agent.SELLER, Event.COMPLY, Event.EVADE_LT2, Scenario.TAX, NO_AUDIT,
            dataclasses.replace(policy, t_s=star - 0.01), te,
        )
        hi = compare(
            Agent.SELLER, Event.COMPLY, Event.EVADE_LT2, Scenario.TAX, NO_AUDIT,
            dataclasses.replace(policy, t_s=star + 0.01), te,
        )
        assert lo > tie_band(te)
        assert hi < -tie_band(te)


class TestVatRateThreshold:
    def test_worked_values(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22)
        te = TransactionEndowments(x_o=10000.0, x_i=5000.0, y_s=10000.0, y_b=20000.0)
        assert vat_rate_threshold(policy, te).value == pytest.approx(0.24)

    def test_no_input_costs_always_satisfied(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22)
        result = vat_rate_threshold(policy, small_te(x_i=0.0))
        assert result.sentinel is Sentinel.ALWAYS_SATISFIED

    def test_zero_income_tax(self):
        policy = TaxPolicy(t_s=0.0, t_b=0.33, v=0.22)
        assert vat_rate_threshold(policy, small_te()).value == 0.0


class TestBuyerThetaThreshold:
    def test_no_audit_value(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, delta=1.0)
        result = buyer_theta_threshold(NO_AUDIT, policy, small_te())
        assert result.value == pytest.approx(0.22 / 1.22)
        assert result.value == pytest.approx(0.180328, abs=1e-6)

    def test_gamma_zero_specialization_is_exact(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, delta=0.8, s_v=0.5)
        te = small_te()
        assert (
            buyer_theta_threshold(AuditRegime(0.0), policy, te).value
            == buyer_theta_threshold(NO_AUDIT, policy, te).value
        )
        assert (
            buyer_theta_threshold(AuditRegime(1.0), policy, te).value
            == buyer_theta_threshold(CERTAIN, policy, te).value
        )

    def test_certain_audit_negative_bound_flagged(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, delta=1.0, s_v=0.3)
        result = buyer_theta_threshold(CERTAIN, policy, small_te())
        assert result.value == pytest.approx(-0.054098, abs=1e-6)
        assert not result.feasible_in_unit_interval

    def test_strictly_decreasing_in_gamma(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, delta=1.0, s_v=0.3)
        values = [
            buyer_theta_threshold(AuditRegime(g / 100), policy, small_te()).value
            for g in range(101)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestGammaThresholds:
    def test_buyer_gamma_worked_value(self):
        assert buyer_gamma_threshold(
            TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=0.33), small_te()
        ).value == pytest.approx(0.75188, abs=1e-5)
        assert buyer_gamma_threshold(
            TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=0.0), small_te()
        ).value == 1.0
        assert buyer_gamma_threshold(
            TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=1.0), small_te()
        ).value == 0.5

    def test_seller_gamma_ewt(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_ys=0.3)
        assert seller_gamma_threshold_ewt(policy, small_te()).value == pytest.approx(
            50.0 / 130.0
        )
        assert seller_gamma_threshold_ewt(policy, small_te(x_i=100.0)).value == 0.0
        assert (
            seller_gamma_threshold_ewt(
                dataclasses.replace(policy, s_ys=0.0), small_te(x_i=0.0)
            ).value
            == 1.0
        )

    def test_seller_gamma_elt2(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_ys=0.3)
        result = seller_gamma_threshold_elt2(policy, small_te())
        assert result.value == pytest.approx((12.0 - 11.0) / 31.2)
        assert result.value == pytest.approx(0.032051, abs=1e-6)

    def test_seller_gamma_elt2_boundary_and_sentinels(self):
        # rates chosen so t_s*(x_o - x_i) = v*x_i exactly: evasion gain vanishes
        knife = TaxPolicy(t_s=0.25, t_b=0.33, v=0.25, s_ys=0.3)
        assert seller_gamma_threshold_elt2(knife, small_te(x_i=50.0)).value == 0.0
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_ys=0.3)
        never = seller_gamma_threshold_elt2(policy, small_te(x_i=90.0))
        assert never.sentinel is Sentinel.NEVER_SATISFIED
        undefined = seller_gamma_threshold_elt2(
            dataclasses.replace(policy, t_s=0.0), small_te()
        )
        assert undefined.sentinel is Sentinel.UNDEFINED

    def test_gamma_zero_reduces_to_tax_threshold_condition(self):
        # at gamma=0 the ELT2 deterrence condition collapses to the seller
        # tax-rate comparison: evasion pays iff t_s exceeds seller_tax_threshold
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_ys=0.3)
        te = small_te()
        star = seller_tax_threshold(policy, te).value
        result = seller_gamma_threshold_elt2(policy, te)
        assert (policy.t_s > star) == (
            result.sentinel is Sentinel.VALUE and result.value > 0.0
        )


class TestBuyerThresholdsByMode:
    """Each buyer closed form is the root of its own mode's payoff margin."""

    POLICY = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, delta=1.0, s_v=0.3)
    # x_o below 1 keeps the paper-literal gamma* = x_o/(1+s_v) inside [0, 1]
    TE = TransactionEndowments(x_o=0.5, x_i=0.2, y_s=200.0, y_b=400.0)

    @pytest.mark.parametrize("mode", list(SanctionBaseMode))
    def test_theta_threshold_zeroes_the_margin(self, mode):
        regime = AuditRegime(0.37)
        star = buyer_theta_threshold(regime, self.POLICY, self.TE, mode).value
        margin = compare(
            Agent.BUYER, Event.COMPLY, Event.EVADE_LT1, Scenario.TAX_WITH_DEDUCTIONS,
            regime, dataclasses.replace(self.POLICY, theta=star), self.TE, mode,
        )
        assert margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", list(SanctionBaseMode))
    def test_gamma_threshold_zeroes_the_margin(self, mode):
        star = buyer_gamma_threshold(self.POLICY, self.TE, mode).value
        margin = compare(
            Agent.BUYER, Event.COMPLY, Event.EVADE_WT, Scenario.TAX,
            AuditRegime(star), self.POLICY, self.TE, mode,
        )
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_paper_literal_formulas(self):
        literal = SanctionBaseMode.PAPER_LITERAL
        te = small_te()
        assert buyer_gamma_threshold(self.POLICY, te, literal).value == pytest.approx(
            100.0 / 1.3
        )
        assert buyer_theta_threshold(
            CERTAIN, self.POLICY, te, literal
        ).value == pytest.approx((100.0 * 0.22 - 0.22 * 1.3) / (100.0 * 1.22))

    def test_corrected_mode_needs_no_endowments(self):
        # x_o cancels from the corrected margins, so no endowment moves them
        assert buyer_gamma_threshold(self.POLICY, self.TE) == buyer_gamma_threshold(
            self.POLICY, small_te(), CORRECTED
        )
        assert buyer_theta_threshold(CERTAIN, self.POLICY, self.TE) == buyer_theta_threshold(
            CERTAIN, self.POLICY, small_te(), CORRECTED
        )

    def test_paper_literal_degenerate_inputs(self):
        literal = SanctionBaseMode.PAPER_LITERAL
        empty = small_te(x_o=0.0, x_i=0.0)
        assert buyer_gamma_threshold(self.POLICY, empty, literal).sentinel is (
            Sentinel.UNDEFINED
        )
        assert buyer_theta_threshold(NO_AUDIT, self.POLICY, empty, literal).sentinel is (
            Sentinel.UNDEFINED
        )


def edged_block():
    """A block of random draws followed by draws that hit every sentinel.

    The edges: no input costs, a zero-value transaction, x_o = 0 and t_s = 0.
    """
    (_, policy, te), = oracle._blocks(seed=14, count=2000)
    edges = [
        ({}, {"x_i": 0.0}),
        ({}, {"x_o": 50.0, "x_i": 50.0}),
        ({}, {"x_o": 0.0, "x_i": 0.0}),
        ({"t_s": 0.0}, {}),
    ]

    def extend(view, k):
        return SimpleNamespace(
            **{
                name: np.append(values, [edge[k].get(name, values[0]) for edge in edges])
                for name, values in vars(view).items()
            }
        )

    return extend(policy, 0), extend(te, 1)


class TestArrayBounds:
    """Each closed form read on arrays of draws equals its reading per draw."""

    @pytest.mark.parametrize("mode", list(SanctionBaseMode))
    def test_array_bound_equals_scalar_reader(self, mode):
        policy, te = edged_block()
        n = len(te.x_o)
        draws = [
            (
                TaxPolicy(**{k: float(v[i]) for k, v in vars(policy).items()}),
                TransactionEndowments(**{k: float(v[i]) for k, v in vars(te).items()}),
            )
            for i in range(n)
        ]
        # each closed form on (policy, te)
        closed_forms = [
            seller_tax_threshold,
            vat_rate_threshold,
            partial(buyer_gamma_threshold, mode=mode),
            seller_gamma_threshold_ewt,
            seller_gamma_threshold_elt2,
        ] + [
            partial(buyer_theta_threshold, regime, mode=mode)
            for regime in (NO_AUDIT, AuditRegime(0.37), CERTAIN)
        ]
        sentinels = set()
        for closed_form in closed_forms:
            fields = [np.broadcast_to(f, (n,)) for f in closed_form(policy, te)]
            for i, (p, t) in enumerate(draws):
                want = closed_form(p, t)
                got = ThresholdResult(*(f[i] for f in fields))
                assert got.sentinel is want.sentinel, (i, want)
                if want.sentinel is Sentinel.VALUE:
                    assert got.value.hex() == want.value.hex(), (i, want)
                    assert type(want.value) is float
                sentinels.add(want.sentinel)
        assert sentinels == set(Sentinel)

    def test_first_mask_in_field_order_wins(self):
        # t_s = 0 leaves ELT2's gamma* undefined, and its gain -v*x_i < 0
        # marks it never satisfied too; undefined comes first
        policy, te = edged_block()
        fields = seller_gamma_threshold_elt2(policy, te)
        last = ThresholdResult(*(np.broadcast_to(f, te.x_o.shape)[-1] for f in fields))
        assert last.undefined and last.never_satisfied
        assert last.sentinel is Sentinel.UNDEFINED
        masks = ("undefined", "always_satisfied", "never_satisfied")
        for held in [masks[:2], masks[1:], masks]:
            result = ThresholdResult(0.5, **{mask: True for mask in held})
            assert result.sentinel is Sentinel(held[0].replace("_", "-"))
            assert not result.feasible_in_unit_interval
        assert ThresholdResult.of(0.5).feasible_in_unit_interval


class TestDominantEvents:
    def test_seller_prefers_lt1_without_audit(self):
        policy = TaxPolicy(t_s=0.33, t_b=0.33, v=0.22)
        assert dominant_events(
            Agent.SELLER, Scenario.TAX, NO_AUDIT, policy, small_te()
        ) == (Event.EVADE_LT1,)

    def test_buyer_evasion_tie_without_audit(self):
        # all evasion variants look identical to the buyer
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22)
        assert dominant_events(
            Agent.BUYER, Scenario.TAX, NO_AUDIT, policy, small_te()
        ) == (Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT)

    def test_buyer_complies_with_generous_deductions(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, delta=1.0, theta=0.25)
        assert dominant_events(
            Agent.BUYER, Scenario.TAX_WITH_DEDUCTIONS, NO_AUDIT, policy, small_te()
        ) == (Event.COMPLY,)

    def test_certain_audit_aligns_both_agents(self):
        policy = TaxPolicy(t_s=0.24, t_b=0.33, v=0.22, s_v=0.3, s_ys=0.3)
        for agent in Agent:
            assert dominant_events(
                agent, Scenario.TAX, CERTAIN, policy, small_te()
            ) == (Event.COMPLY,)

    def test_taxless_degeneracy_all_tie(self):
        policy = TaxPolicy(t_s=0.0, t_b=0.0, v=0.0)
        for agent in Agent:
            assert dominant_events(
                agent, Scenario.TAX, NO_AUDIT, policy, small_te()
            ) == (Event.COMPLY, Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT)


class TestTieRule:
    def test_every_tie_decision_reads_the_one_tolerance(self, monkeypatch, section6_params):
        # Every gap of section6's payoffs is far below its transaction scale,
        # so a band of the whole scale turns every verdict into a tie, in the
        # dominance layer and the coalition layer alike.
        policy, te = section6_params
        axis = [0.0, 0.5, 1.0]

        def verdicts():
            margin = compare(
                Agent.SELLER, Event.COMPLY, Event.EVADE_LT1, Scenario.TAX, NO_AUDIT, policy, te
            )
            return (
                0 if abs(margin) <= tie_band(te) else np.sign(margin),
                [dominant_events(a, Scenario.TAX, NO_AUDIT, policy, te) for a in Agent],
                coalition_best_event(0.0, policy, te),
                coalition_best_events_grid(axis, axis, policy, te).tolist(),
            )

        sign, dominant, best, grid = verdicts()
        assert sign == -1
        assert all(events != CANONICAL_EVENTS for events in dominant)
        assert best != COALITION_EVENTS
        assert grid != [[0] * 3] * 3
        monkeypatch.setattr(dominance, "TIE_RTOL", 1.0)
        sign, dominant, best, grid = verdicts()
        assert sign == 0
        assert dominant == [CANONICAL_EVENTS] * len(Agent)
        assert best == COALITION_EVENTS
        assert grid == [[0] * 3] * 3  # every cell ties, so comply wins it

    def test_band_of_a_block_view_is_the_band_of_each_draw(self):
        tes = [small_te(x_o, x_i) for x_o, x_i in ((10.0, 0.0), (100.0, 50.0), (1e5, 3.0))]
        fields = (f.name for f in dataclasses.fields(TransactionEndowments))
        view = SimpleNamespace(**{f: np.array([getattr(te, f) for te in tes]) for f in fields})
        assert dominance.tie_band(view).tolist() == [dominance.tie_band(te) for te in tes]
