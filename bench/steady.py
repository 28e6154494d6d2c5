"""Steadiness check: run the benchmark on several seeds and report spreads.

    python3 bench/steady.py

For each workload in BENCHMARK.json, runs `bench/run.py --trace 0` once
per seed (seeds 1..SEEDS, each run lasting the declared run_seconds) and
prints, for each end-to-end metric, the median of the runs and the
distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound.  It then makes TRACE_SEEDS traced runs and checks
that every work count (the per-layer metrics whose unit is not seconds or
a ratio) repeats exactly across them.  Exits 1 when a spread exceeds a
third of its metric's bound, a run reports a failed op, or a work count
differs between seeds.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
TRACE_SEEDS = 2
TIMED_UNITS = ("s", "ratio")


def run(workload, seed, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, 0) for seed in range(1, SEEDS + 1)]
        failed = sum(r["failed"] for r in results)
        print(f"workload {workload}: {SEEDS} runs, "
              f"{sum(r['attempted'] for r in results)} ops, {failed} failed")
        ok &= failed == 0
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            within = spread <= metric["bound"] / 3
            ok &= within
            print(f"  {name:14} median {med:10.5g} {metric['unit']:3} spread {spread:6.3f}"
                  f"  bound {metric['bound']:.3f}  {'ok' if within else 'TOO WIDE'}"
                  f"  values {' '.join(f'{v:.4g}' for v in values)}", flush=True)

        traced = [run(workload, seed, 1) for seed in range(1, TRACE_SEEDS + 1)]
        for name in (m["name"] for m in spec["per_layer"] if m["unit"] not in TIMED_UNITS):
            seen = {r["metrics"][name]["value"] for r in traced}
            same = len(seen) == 1
            ok &= same
            print(f"  {name:34} {' '.join(str(v) for v in seen):>12}"
                  f"  {'repeats' if same else 'DIFFERS'} over {TRACE_SEEDS} traced runs",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
