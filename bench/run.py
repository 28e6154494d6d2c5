"""mdskit's benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; mdskit is imported from the
checkout's `src/`, nothing is installed or built.  Without --workload every
workload runs in turn.  The workloads, metrics and run length are declared
in BENCHMARK.json at the checkout root; bench/README.md says why each
workload was chosen and which end-to-end metric each layer should move.

One caller in a closed loop, no threads: each timed pass is a fresh
interpreter (bench/one_pass.py) running the whole workload once, and the
next pass starts when it has exited.  A run repeats passes until --seconds
is spent (at least one pass) and reports medians over them:

  --trace 0  every end-to-end metric, from untraced passes;
  --trace 1  every per-layer metric, from traced passes alternated with
             untraced ones, whose wall times give trace_overhead_ratio.

setup_s is the median over SETUP_SAMPLES set-up-only interpreters per
run.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it print each metric with
its unit and sample count.  Exits 2 without a result when the
checkout has no mdskit sources or a pass crashes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ONE_PASS = os.path.join(HERE, "one_pass.py")
SETUP_SAMPLES = 12
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def spawn(workload, seed, mode):
    """Run one pass in a fresh interpreter and return its record, with
    this process's time.monotonic() reading when it started the pass and
    the pass's duration as this process saw it."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, ONE_PASS, workload, str(seed), mode],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} pass ran over {PASS_TIMEOUT_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["started"] = started
    record["pass_s"] = time.monotonic() - started
    return record


def setup_time(workload, seed):
    """Interpreter start to first op, in reference seconds: scaled by a
    bare interpreter start timed just before (speed.py)."""
    bare = speed.interpreter_start_time()
    record = spawn(workload, seed, "setup")
    return (record["first_call"] - record["started"]) * speed.START_REFERENCE_S / bare


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + seconds
    setups = [] if trace else [setup_time(workload, seed) for _ in range(SETUP_SAMPLES)]
    kinds = ("plain", "traced") if trace else ("plain",)
    passes = {kind: [] for kind in kinds}
    done = 0
    while True:
        kind = kinds[done % len(kinds)]
        record = spawn(workload, seed, kind)
        passes[kind].append(record)
        done += 1
        if done >= len(kinds) and time.monotonic() + record["pass_s"] > deadline:
            break
    return setups, passes


def middle(values):
    """Median; a median of counts stays a count."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def median_of(records, key):
    return middle(r[key] for r in records)


def summarize(spec, setups, passes, trace):
    """Return (metrics, sample counts, unscaled wall seconds, attempted
    ops, failures) for one run."""
    records = [r for kind in passes.values() for r in kind]
    attempted = sum(r["ops"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    plain = passes["plain"]
    if trace:
        traced = passes["traced"]
        values = {m["name"]: middle(r["layers"].get(m["name"], 0) for r in traced)
                  for m in spec["per_layer"] if m["name"] != "trace_overhead_ratio"}
        values["trace_overhead_ratio"] = (median_of(traced, "wall_s")
                                          / median_of(plain, "wall_s"))
        declared, samples = spec["per_layer"], len(traced)
        sample_counts = {m["name"]: samples for m in declared}
        sample_counts["trace_overhead_ratio"] = f"{len(traced)}+{len(plain)}"
    else:
        values = {"wall_s": median_of(plain, "wall_s"),
                  "setup_s": middle(setups),
                  "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        declared = spec["end_to_end"]
        sample_counts = {name: len(plain) for name in values}
        sample_counts["setup_s"] = len(setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    raw_wall = median_of(plain, "raw_wall_s")
    return metrics, sample_counts, raw_wall, attempted, failures


def report(workload, seed, metrics, samples, raw_wall, attempted, failures):
    print(f"workload {workload} seed {seed}")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:34} {shown:>14} {metric['unit']:16} n={samples[name]}")
    print(f"  {'unscaled wall seconds (median)':34} {raw_wall:>14.6g}")
    print(f"  {'ops attempted':34} {attempted:>14}")
    print(f"  {'ops failed':34} {len(failures):>14}")
    print(f"  {'error_rate':34} {len(failures) / attempted:>14.6g}")
    for name, problem in failures[:20]:
        print(f"  FAILED {name}: {problem}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}), flush=True)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mdskit", "__init__.py")):
        print(f"error: no mdskit sources under {ROOT}/src", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else names:
        try:
            setups, passes = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(workload, args.seed,
               *summarize(spec, setups, passes, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
