"""Per-layer counters for the traced run, and untraced per-call timings.

The tracer wraps the public functions of each ``vat_game`` module from the
outside. Modules import names directly (``from .model import
expected_payoff``), so a wrapper replaces every module attribute that is the
original function, not only the defining module's. Each wrapped call is a
span: it counts a call and adds its duration, less the duration of the
wrapped calls it made, to the function's self time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

#: layer -> wrapped public functions. `model.params_init` stands for the
#: `__post_init__` validation of the three parameter dataclasses.
LAYER_FUNCTIONS = {
    "model": ("payoff_event", "government_revenue", "expected_payoff"),
    "dominance": ("compare", "dominant_events"),
    "coalition": ("coalition_payoff", "coalition_best_event", "theta_frontier"),
    "oracle": ("iter_draws", "oracle_threshold", "oracle_best_response"),
    "report": ("compute_appendix_table",),
    "config": ("build_parameters",),
    "cli": ("main",),
}
PARAMS_INIT = "model.params_init"
PARAM_CLASSES = ("TaxPolicy", "TransactionEndowments", "AuditRegime")

SPANS = tuple(
    f"{layer}.{name}" for layer, names in LAYER_FUNCTIONS.items() for name in names
) + (PARAMS_INIT,)


class Tracer:
    """Call counts and self times of the wrapped functions, in memory."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self._children: list[float] = []  # wrapped-call time inside each open span

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        return dict(self.calls), dict(self.self_s)

    def _close(self, span: str, elapsed: float, calls: int = 1) -> None:
        self.self_s[span] += elapsed - self._children.pop()
        self.calls[span] += calls
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, span: str, fn):
        clock, open_spans, close = time.perf_counter, self._children, self._close

        if inspect.isgeneratorfunction(fn):
            # A generator runs in pieces: each resumption is its own span, and
            # one call is counted per generator created.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                self.calls[span] += 1
                while True:
                    open_spans.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        close(span, clock() - t0, 0)
                        return
                    close(span, clock() - t0, 0)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(span, clock() - t0)

        return wrapper

    def install(self, package: str = "vat_game") -> None:
        """Wrap every listed function wherever a package module names it."""
        modules = [
            m
            for name, m in sys.modules.items()
            if name == package or name.startswith(package + ".")
        ]
        for layer, names in LAYER_FUNCTIONS.items():
            owner = sys.modules[f"{package}.{layer}"]
            for name in names:
                original = getattr(owner, name)
                wrapped = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        model = sys.modules[f"{package}.model"]
        for cls_name in PARAM_CLASSES:
            cls = getattr(model, cls_name)
            cls.__post_init__ = self.wrap(PARAMS_INIT, cls.__post_init__)


def _per_call_us(call, calls_per_loop: int, loops: int, repeats: int = 5) -> float:
    """Median over repeats of the mean time of one call, in microseconds."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            call()
        samples.append((time.perf_counter() - t0) / (loops * calls_per_loop))
    return statistics.median(samples) * 1e6


def per_call_timings(vg) -> dict[str, float]:
    """Untraced cost of one call of each hot function at the section6 preset.

    `vg` is a namespace holding the imported `vat_game` modules. The inputs
    mirror the per-call table in ROADMAP.md: every defined payoff cell, every
    expected payoff at gamma=0.37, and the buyer's audit-rate threshold, whose
    root lies inside [0, 1] so the oracle bisects all the way.
    """
    model, dominance, coalition, oracle = vg.model, vg.dominance, vg.coalition, vg.oracle
    policy, te = vg.config.build_parameters("section6", None, None)
    regime = model.AuditRegime(0.37)
    cells = [
        (s, a, e)
        for s in model.Scenario
        for a in (False, True)
        for e in model.defined_events(s, a)
    ]
    expected = [(s, e) for s in model.Scenario for e in model.CANONICAL_EVENTS]
    buyer, comply, wt = dominance.Agent.BUYER, model.Event.COMPLY, model.Event.EVADE_WT
    comparison = oracle.Comparison(buyer, comply, wt, model.Scenario.TAX, model.AuditRegime(0.0))
    draw = oracle.ParameterDraw(policy, te, "section6")

    def payoff_events():
        for s, a, e in cells:
            model.payoff_event(s, a, e, policy, te)

    def expected_payoffs():
        for s, e in expected:
            model.expected_payoff(s, regime, e, policy, te)

    return {
        "model.payoff_event.us_per_call": _per_call_us(payoff_events, len(cells), 200),
        "model.expected_payoff.us_per_call": _per_call_us(expected_payoffs, len(expected), 200),
        "dominance.compare.us_per_call": _per_call_us(
            lambda: dominance.compare(buyer, comply, wt, model.Scenario.TAX, regime, policy, te),
            1,
            2000,
        ),
        "coalition.coalition_best_event.us_per_call": _per_call_us(
            lambda: coalition.coalition_best_event(0.37, policy, te), 1, 1000
        ),
        "coalition.theta_frontier.us_per_call": _per_call_us(
            lambda: coalition.theta_frontier(wt, policy, te), 1, 500
        ),
        "oracle.oracle_threshold.us_per_call": _per_call_us(
            lambda: oracle.oracle_threshold("gamma", comparison, draw), 1, 20
        ),
        "oracle.iter_draws.us_per_draw": _per_call_us(
            lambda: sum(1 for _ in oracle.iter_draws(7, 200)), 200, 5
        ),
    }
