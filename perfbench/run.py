"""Benchmark of the vat_game package: one workload, one process, one thread.

    python3 perfbench/run.py --workload oracle-validate --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``ops_per_s``, ``setup_s``, ``peak_rss_mib``); with
``--trace 1`` it holds the per-layer metrics instead. See README.md.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LAYERS = ("model", "dominance", "coalition", "oracle", "config", "report", "cli")


def import_program():
    """The package's modules, imported from this checkout's ``src/`` only."""
    if not (SRC / "vat_game" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no vat_game package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"vat_game.{name}") for name in LAYERS}
    if not Path(modules["model"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"run.py: vat_game was imported from outside {SRC}")
    return types.SimpleNamespace(**modules)


#: Time of one calibration block on the machine the benchmark was written on,
#: in its quiet periods. Rates are reported at this speed; see `end_to_end`.
CALIBRATION_S = 5.2e-4


def calibration_block() -> float:
    """Fixed pure-Python work that does not touch the program.

    It prices the two presets with the benchmark's own transcription, which
    exercises the interpreter the way the program does: small float formulas,
    tuples, dict lookups and calls.
    """
    import reference as ref

    total = 0.0
    for p in (ref.APPENDIX_PARAMS, ref.SECTION6_PARAMS):
        for mode in ref.MODES:
            for scenario in ref.SCENARIOS:
                for event in ref.CANONICAL:
                    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                        total += ref.expected(p, scenario, gamma, event, mode)[0]
    return total


#: Time of one fresh interpreter importing numpy, the bulk of every set-up, on
#: the machine the benchmark was written on in its quiet periods. Set-up is
#: reported at this speed; see `setup_seconds`.
NUMPY_IMPORT_S = 0.20
NUMPY_IMPORTS = 5


def setup_seconds(raw: float) -> float:
    """The process's one cold set-up, scaled to a quiet host.

    Set-up is not repeatable within a process: a second one is warm. The host
    slows whole processes for minutes at a time, which moved the median of
    raw set-up by up to 26% within a few minutes. So right after set-up the
    run times fresh interpreters that only import numpy, the bulk of set-up,
    and divides set-up by the median of their times. Scaled, the medians of
    two sets of ten runs differed by at most 5.7%.
    """
    times = []
    for _ in range(NUMPY_IMPORTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-B", "-c", "import numpy"], check=True)
        times.append(time.perf_counter() - t0)
    return NUMPY_IMPORT_S * raw / statistics.median(times)


def measure(workload, seconds, tracer=None):
    """Repeat every chunk, in order, until `seconds` of calls have been timed.

    Only whole rounds over all chunks are run, so every operation is attempted
    equally often. After each timed chunk a calibration block is timed too.
    Returns per chunk the ratios of its time to the calibration block's, and
    with a tracer the per-repeat counter deltas.
    """
    ratios = [[] for _ in workload.chunks]
    deltas = [[] for _ in workload.chunks]
    prints = [None] * len(workload.chunks)
    timed = 0.0
    while timed < seconds:
        for i, chunk in enumerate(workload.chunks):
            before = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            out = chunk()
            t1 = time.perf_counter()
            if tracer:
                after = tracer.snapshot()
            calibration_block()
            t2 = time.perf_counter()
            ratios[i].append((t1 - t0) / (t2 - t1))
            timed += t1 - t0
            if tracer:
                deltas[i].append(
                    tuple({k: a[k] - b[k] for k in a} for a, b in zip(after, before))
                )
            if prints[i] is None:
                workload.check(i, out)
                prints[i] = workload.fingerprint(out)
            elif workload.fingerprint(out) != prints[i]:
                workload.problem(f"chunk {i} returned a different output on a repeat")
            del out
    return ratios, deltas


def end_to_end(workload, setup_s, ratios):
    # The host this runs on slows all code by up to 40%, in episodes from
    # seconds to minutes. Each chunk repeat is therefore timed against the
    # calibration block run right after it, and each chunk is summarised by
    # the median of those ratios over its repeats. Scaled by the block's
    # quiet-time cost, that gives the chunk's time on a quiet machine.
    busy = CALIBRATION_S * sum(statistics.median(r) for r in ratios)
    return {
        "ops_per_s": {"value": sum(workload.ops) / busy, "unit": "op/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
    }


def per_layer(workload, setup, deltas, timings):
    """Calls and self time of set-up plus one round over all chunks."""
    from tracing import SPANS

    setup_calls, setup_self = setup
    calls = {s: setup_calls[s] + sum(d[0][0][s] for d in deltas) for s in SPANS}
    self_s = {
        s: setup_self[s] + sum(min(v[1][s] for v in d) for d in deltas)
        for s in SPANS
    }
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = {"value": calls[span], "unit": "count"}
        metrics[f"{span}.self_s"] = {"value": self_s[span], "unit": "s"}

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["oracle.compare_per_threshold"] = {
        "value": ratio(calls["dominance.compare"], calls["oracle.oracle_threshold"]),
        "unit": "calls/threshold",
    }
    metrics["model.payoff_event_per_op"] = {
        "value": ratio(calls["model.payoff_event"], sum(workload.ops)),
        "unit": "calls/op",
    }
    metrics["model.government_revenue_per_payoff_event"] = {
        "value": ratio(calls["model.government_revenue"], calls["model.payoff_event"]),
        "unit": "calls/call",
    }
    for name, value in timings.items():
        metrics[name] = {"value": value, "unit": "us"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    vg = import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    tracer = timings = None
    if args.trace:
        timings = tracing.per_call_timings(vg)
        tracer = tracing.Tracer()
        tracer.install()
        base = tracer.snapshot()

    (HERE / ".tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=HERE / ".tmp"))
    try:
        workload = workloads.WORKLOADS[args.workload](vg, args.seed, tmp)
        setup = None
        if tracer:
            now = tracer.snapshot()
            setup = tuple({k: n[k] - b[k] for k in n} for n, b in zip(now, base))
        setup_s = setup_seconds(time.perf_counter() - _START)
        ratios, deltas = measure(workload, args.seconds, tracer)
        workload.finish()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rounds = len(ratios[0])
    if tracer:
        metrics = per_layer(workload, setup, deltas, timings)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        # Traced against untraced ops_per_s gives the tracing overhead.
        traced = end_to_end(workload, setup_s, ratios)["ops_per_s"]["value"]
        trace_file.write_text(
            json.dumps({"rounds": rounds, "ops_per_s_traced": traced, "metrics": metrics}, indent=1)
        )
    else:
        metrics = end_to_end(workload, setup_s, ratios)

    for name, count in sorted(workload.counts.items()):
        print(f"{args.workload}: {name}: {count}", file=sys.stderr)
    for message in workload.problems:
        print(f"{args.workload}: PROBLEM {message}", file=sys.stderr)
    result = {
        "correct": not workload.counts["problems"],
        "attempted": rounds * sum(workload.ops),
        "failed": rounds * sum(workload.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
