"""Bayesian coalition game: buyer+seller joint payoffs and theta(gamma) frontiers.

The coalition only disagrees internally in the deduction scenario, so the
compliant joint strategy is priced there while every evasion variant is
priced in the plain tax scenario.

Two frontier notions coexist:

* ``theta_frontier`` reconstructs the exact compliance boundary from the
  payoff engine (the joint payoff margin is affine in both theta and
  gamma, so two evaluations per axis pin the line down).
* ``published_theta_frontier`` evaluates the closed-form lines printed in
  the source analysis. Its slope agrees with the reconstruction in both
  sanction base modes, and the whole-transaction intercept agrees too, but
  the printed last-transaction intercepts are inconsistent with the payoff
  definitions they were derived from; they are kept as reproduction
  anchors and for the published trade-off discussion.

The coalition's best joint strategy is found per point by
``coalition_best_event`` and over a whole (theta, gamma) raster by
``coalition_best_events_grid``, which evaluates the engine once per joint
strategy on broadcast arrays. Both apply the tie rule of ``dominance``
(``tie_band`` and ``tied_for_best``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

from .dominance import ThresholdResult, tie_band, tied_for_best
from .model import (
    AuditRegime,
    Event,
    SanctionBaseMode,
    Scenario,
    TaxPolicy,
    TransactionEndowments,
    UndefinedEventError,
    expected_payoff,
)

#: Evasion variants that have a compliance frontier.
FRONTIER_VARIANTS = (Event.EVADE_LT1, Event.EVADE_LT2, Event.EVADE_WT)

#: Joint strategies competing in the coalition game, canonical order.
COALITION_EVENTS = (Event.COMPLY,) + FRONTIER_VARIANTS


class FrontierUndefinedError(ValueError):
    """The joint payoff margin moves with theta by at most a tie: no frontier."""


@dataclass(frozen=True)
class ThresholdLine:
    """Affine compliance bound theta(gamma) = intercept + slope * gamma."""

    variant: Event
    intercept: float
    slope: float
    mode: SanctionBaseMode

    def theta_at(self, gamma: float) -> float:
        return self.intercept + self.slope * gamma


def coalition_payoff(
    event: Event,
    gamma: float,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> float:
    """Summed buyer+seller expected payoff of a joint strategy.

    COMPLY is priced in the deduction scenario; evasion variants in the
    plain tax scenario (deductions only exist on documented transactions).
    """
    if event is Event.EVADE_LT_APPENDIX:
        raise UndefinedEventError(
            "the appendix variant does not participate in the coalition game"
        )
    return _joint_payoff(event, AuditRegime(gamma), policy, te, mode)


def _joint_payoff(event, regime, policy, te, mode):
    """Buyer plus seller payoff; takes views whose fields may be arrays."""
    scenario = Scenario.TAX_WITH_DEDUCTIONS if event is Event.COMPLY else Scenario.TAX
    pv = expected_payoff(scenario, regime, event, policy, te, mode)
    return pv.buyer + pv.seller


def theta_frontier(
    variant: Event,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> ThresholdLine:
    """Compliance frontier reconstructed exactly from the payoff engine.

    The margin comply(theta, gamma) - evade(gamma) is affine in theta with
    coefficient x_o*(1 + v*delta) and affine in gamma, so evaluating it at
    theta in {0, 1} and gamma in {0, 1} determines the boundary line.
    """
    if variant not in FRONTIER_VARIANTS:
        raise ValueError(f"no compliance frontier for {variant}")

    def margin(theta: float, gamma: float) -> float:
        p = replace(policy, theta=theta)
        return coalition_payoff(Event.COMPLY, gamma, p, te, mode) - coalition_payoff(
            variant, gamma, p, te, mode
        )

    base = margin(0.0, 0.0)
    theta_coeff = margin(1.0, 0.0) - base
    gamma_coeff = margin(0.0, 1.0) - base
    if abs(theta_coeff) <= tie_band(te):
        # x_o*(1 + v*delta) is recovered as a difference of payoffs. Within
        # one tie band, the margin moves by at most a tie over the whole theta
        # range, so no theta separates compliance from evasion; the line
        # would be rounding noise.
        raise FrontierUndefinedError(
            f"{variant.value} frontier undefined: the joint payoff margin moves with "
            "theta by at most a tie (x_o is zero or too small against the incomes)"
        )
    return ThresholdLine(
        variant=variant,
        intercept=-base / theta_coeff,
        slope=-gamma_coeff / theta_coeff,
        mode=mode,
    )


def published_theta_frontier(
    variant: Event,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.PAPER_LITERAL,
) -> ThresholdLine:
    """Compliance frontier as printed in the source analysis.

    Intercept numerators (over x_o*(1 + v*delta)):
      LT1:  v*(delta*x_o + (t_s - v)*x_i)
      LT2:  x_o*delta*v - v*x_i*(1 + t_s)
      WT:   t_s*(x_o - x_i) + v*delta*x_o
    The common slope numerator is v*(1+s_v) + t_s*x_o*(1+s_ys) in
    PAPER_LITERAL mode; CORRECTED restores the x_o factor on the VAT
    sanction term, giving x_o*(v*(1+s_v) + t_s*(1+s_ys)).
    """
    if variant not in FRONTIER_VARIANTS:
        raise ValueError(f"no compliance frontier for {variant}")
    t_s, v, delta = policy.t_s, policy.v, policy.delta
    x_o, x_i = te.x_o, te.x_i
    denom = x_o * (1.0 + v * delta)
    if denom == 0.0:
        raise ZeroDivisionError("frontier undefined: x_o*(1 + v*delta) = 0")

    if variant is Event.EVADE_LT1:
        numerator = v * (delta * x_o + (t_s - v) * x_i)
    elif variant is Event.EVADE_LT2:
        numerator = x_o * delta * v - v * x_i * (1.0 + t_s)
    else:
        numerator = t_s * (x_o - x_i) + v * delta * x_o

    vat_sanction = v * (1.0 + policy.s_v)
    if mode is SanctionBaseMode.CORRECTED:
        vat_sanction *= x_o
    slope_numerator = vat_sanction + t_s * x_o * (1.0 + policy.s_ys)
    return ThresholdLine(
        variant=variant,
        intercept=numerator / denom,
        slope=-slope_numerator / denom,
        mode=mode,
    )


def gamma_for_compliance_without_deductions(
    variant: Event,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.PAPER_LITERAL,
) -> ThresholdResult:
    """Audit probability at which theta = 0 already sustains joint compliance.

    The gamma-axis crossing -intercept/slope of the published frontier,
    undefined where the frontier is flat and 0 where its intercept is not
    positive. Values above 1 are reported with the feasibility flag down:
    auditing alone cannot do it and deductions are necessary.
    """
    line = published_theta_frontier(variant, policy, te, mode)
    value = 0.0 if line.intercept <= 0.0 else -line.intercept / (line.slope or 1.0)
    return ThresholdResult(value, undefined=line.slope == 0.0)


def coalition_best_event(
    gamma: float,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> tuple[Event, ...]:
    """Joint strategies maximizing the coalition payoff, ties in canonical order."""
    payoffs = [
        coalition_payoff(event, gamma, policy, te, mode) for event in COALITION_EVENTS
    ]
    tied = tied_for_best(payoffs, tie_band(te))
    return tuple(e for e, t in zip(COALITION_EVENTS, tied) if t)


def coalition_payoff_grid(
    thetas,
    gammas,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> np.ndarray:
    """Coalition payoff of every joint strategy on a (theta, gamma) grid.

    Entry [k, i, j] is coalition_payoff(COALITION_EVENTS[k], gammas[j],
    replace(policy, theta=thetas[i]), te, mode), bit for bit. theta and
    gamma are validated once each, at their smallest and largest values;
    every admissible range is an interval, so every point between them is
    admissible too. The engine then runs once per joint strategy on plain
    views of the policy (theta a column) and the regime (gamma a row).
    """
    import numpy as np  # here, so that commands without a grid start without numpy

    thetas = np.asarray(thetas, dtype=float).reshape(-1, 1)
    gammas = np.asarray(gammas, dtype=float).reshape(1, -1)
    if thetas.size == 0 or gammas.size == 0:
        raise ValueError("theta and gamma axes must not be empty")
    for theta in (thetas.min(), thetas.max()):
        replace(policy, theta=float(theta))
    for gamma in (gammas.min(), gammas.max()):
        AuditRegime(float(gamma))
    policy_view = SimpleNamespace(**{**vars(policy), "theta": thetas})
    regime_view = SimpleNamespace(gamma=gammas)
    payoffs = [
        _joint_payoff(event, regime_view, policy_view, te, mode)
        for event in COALITION_EVENTS
    ]
    return np.stack(np.broadcast_arrays(*payoffs))


def coalition_best_events_grid(
    thetas,
    gammas,
    policy: TaxPolicy,
    te: TransactionEndowments,
    mode: SanctionBaseMode = SanctionBaseMode.CORRECTED,
) -> np.ndarray:
    """Index into COALITION_EVENTS of the best joint strategy per grid cell.

    Entry [i, j] names coalition_best_event(gammas[j], replace(policy,
    theta=thetas[i]), te, mode)[0]: the first tied strategy in canonical
    order.
    """
    payoffs = coalition_payoff_grid(thetas, gammas, policy, te, mode)
    return tied_for_best(payoffs, tie_band(te)).argmax(axis=0)
