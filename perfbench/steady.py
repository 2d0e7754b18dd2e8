"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

Run from the root of a checkout. Each set runs every workload in
BENCHMARK.json ten times, one run at a time, each with its own seed (set A
seeds 1..10, set B seeds 101..110), for the run length in BENCHMARK.json.
For each workload and end-to-end metric it prints both medians, both quartile
spreads (the distance between the first and third quartile as a share of the
median), and whether the sets agree: each spread within the metric's bound,
the second median no worse than the first by more than the bound, and the
same share of failed operations in both sets. Exits 1 if any of that fails.
The table is also written to perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEEDS = {"A": 1, "B": 101}
RUNS = 10


def run_once(command, workload, seed, seconds):
    argv = [sys.executable if command[0] == "python3" else command[0], *command[1:]]
    argv += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    results = {}
    for name, first_seed in SET_SEEDS.items():
        for workload in workloads:
            runs = []
            for k in range(RUNS):
                seed = first_seed + k
                run = run_once(bench["command"], workload, seed, bench["run_seconds"])
                print(f"set {name} {workload} seed {seed}: {json.dumps(run)}", file=sys.stderr)
                runs.append(run)
            results[name, workload] = runs

    rows, agree = [], True
    header = f"{'workload':16} {'metric':13} {'median A':>11} {'median B':>11} "
    header += f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    print(header)
    for workload in workloads:
        a, b = results["A", workload], results["B", workload]
        for runs in (a, b):
            if not all(r["correct"] for r in runs):
                agree = False
                print(f"{workload}: a run reported correct=false")
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in (a, b)]
        if len(shares[0] | shares[1]) != 1:
            agree = False
            print(f"{workload}: failed-operation shares differ: {sorted(shares[0] | shares[1])}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = (ma - mb) / ma if metric["better"] == "higher" else (mb - ma) / ma
            ok = worse <= bound and sa <= bound and sb <= bound
            agree &= ok
            rows.append(dict(workload=workload, metric=name, median_a=ma, median_b=mb,
                             spread_a=sa, spread_b=sb, bound=bound, agree=ok))
            print(f"{workload:16} {name:13} {ma:11.4g} {mb:11.4g} {sa:9.3%} {sb:9.3%} "
                  f"{bound:6.2f}  {'agree' if ok else 'DISAGREE'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"runs": RUNS, "rows": rows}, indent=1))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
