"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/one_pass.py WORKLOAD SEED MODE

MODE is `plain` (timed pass), `traced` (timed pass with function-level
spans, see tracing.py) or `setup` (import and input generation only).
Every real invocation of mdskit starts cold, so each pass gets its own
interpreter and nothing built in one pass can speed up the next.

Prints one JSON line: `first_call`, the time.monotonic() reading when the
first op starts (the caller subtracts its own reading taken before it
started this interpreter, which gives the set-up time), and, for a timed
pass, the pass's wall time, peak RSS, op count, failed ops and, when
traced, the per-layer metrics.  Pass times are in reference seconds
(speed.py); `raw_wall_s` is the pass's wall time as measured.  Every op
checks its own output; a wrong output or an exception fails that op only
and the pass goes on.
"""

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import mdskit  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

if not os.path.abspath(mdskit.__file__).startswith(SRC + os.sep):
    sys.exit(f"error: imported mdskit from {mdskit.__file__}, not from {SRC}")


# ------------------------------------------------------------------ sweep

SWEEP_COMMANDS = (("2", "6"), ("3", "6"), ("4", "4"))


def sweep_ops(rng):
    """check-theorems through the CLI entry point; stdout must equal the
    golden copy recorded at the benchmark's first commit, exit code 0.
    The seed only orders the commands."""
    import mdskit.cli  # noqa: F401  (import belongs to set-up)

    commands = list(SWEEP_COMMANDS)
    rng.shuffle(commands)
    ops = []
    for q, max_n in commands:
        argv = ["check-theorems", "--q", q, "--max-n", max_n]
        golden = os.path.join(HERE, "golden", f"check-theorems_q{q}_max-n{max_n}.txt")
        with open(golden, encoding="utf-8") as fh:
            expected = fh.read()

        def op(argv=argv, expected=expected):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = mdskit.cli.run(argv)
            if code != 0:
                return f"exit code {code}"
            if out.getvalue() != expected:
                return "stdout differs from the golden copy"
            return None
        ops.append((f"sweep.q{q}_max-n{max_n}", op))
    return ops


# ----------------------------------------------------------------- search

def _exists(n, k, q, expected):
    def op():
        found = mdskit.exists_mds(n, k, q)
        return None if found is expected else f"exists_mds gave {found}"
    return op


def _count(n, k, q, expected):
    def op():
        result = mdskit.enumerate_mds(mdskit.SearchSpec(n, k, q, require_zero=True))
        if not result.complete:
            return "search incomplete"
        return None if result.count == expected else f"count {result.count}"
    return op


# Counts with the zero word required: (3,2)_5 codes are Latin squares of
# order 5, L(5) = 161280 (OEIS A002860), one in 5 contains zero; (4,3)_4
# codes are Latin cubes of order 4, 55296 of them, one in 4 contains zero.
SEARCH_CASES = (
    ("exists_6_2_4", _exists(6, 2, 4, False)),
    ("exists_5_2_5", _exists(5, 2, 5, True)),
    ("count_3_2_5", _count(3, 2, 5, 161280 // 5)),
    ("count_4_3_4", _count(4, 3, 4, 55296 // 4)),
)


def search_ops(rng):
    """Existence and count searches as library calls; the seed orders them."""
    ops = [(tracing.CASE_PREFIX + name, op) for name, op in SEARCH_CASES]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- bigcode

BIG_CODES = (
    ("ext-rs_10_3_9", (10, 3, 9), lambda: mdskit.extended_rs_code(mdskit.Field(9), 3)),
    ("dx-rs_10_3_8", (10, 3, 8), lambda: mdskit.doubly_extended_rs(mdskit.Field(8))),
    ("ext-rs_12_3_11", (12, 3, 11), lambda: mdskit.extended_rs_code(mdskit.Field(11), 3)),
    ("mols_8_2_7", (8, 2, 7), lambda: mdskit.mols_to_code(mdskit.cyclic_mols(7))),
    ("rs_16_2_16", (16, 2, 16), lambda: mdskit.rs_code(mdskit.Field(16), 2, range(16))),
)


def _pipeline(name, shape, build, rng):
    """The steps on one large code.  Seeded inputs: a symbol permutation
    at every position plus one position swap, the codeword sent to zero
    (one with no zero symbol, so every seed takes n moves to normalize),
    the distance center, a two-block partition of fixed block sizes (so
    every seed scans the same number of profiles), and the residual
    positions and values for each t in 1..k."""
    n, k, q = shape
    perms = [rng.sample(range(q), q) for _ in range(n)]
    swap = rng.sample(range(n), 2)
    zero_index = rng.randrange(q ** k)
    center_index = rng.randrange(q ** k)
    block = sorted(rng.sample(range(n), n // 2))
    rest = [p for p in range(n) if p not in block]
    residuals = [(rng.sample(range(n), t), [rng.randrange(q) for _ in range(t)])
                 for t in range(1, k + 1)]
    state = {}

    def built():
        code = state["code"] = build()
        return None if (code.n, code.k, code.q) == shape else f"shape {code!r}"

    def moves():
        moves = [mdskit.SP(p, perm) for p, perm in enumerate(perms)] + [mdskit.PP(*swap)]
        moved = state["moved"] = mdskit.apply_moves(state["code"], moves)
        return None if len(moved) == q ** k and moved.n == n else f"moved to {moved!r}"

    def mds():
        report = mdskit.is_mds(state["moved"])
        return None if report.is_mds and report.d == n - k + 1 else f"{report}"

    def round_trip():
        moved = state["moved"]
        return None if mdskit.parse_code(mdskit.format_code(moved)) == moved else "differs"

    def normalize():
        moved = state["moved"]
        full_weight = [w for w in moved.sorted_words() if all(w)]
        word = full_weight[zero_index % len(full_weight)]
        state["normalized"], _ = mdskit.normalize_to_zero(moved, word)
        return None if state["normalized"].contains_zero() else "zero word absent"

    def weights():
        brute = mdskit.weight_distribution_bruteforce(state["normalized"])
        closed = mdskit.weight_distribution_formula(n, k, q)
        return None if brute == closed else f"{brute} != {closed}"

    def distances():
        moved = state["moved"]
        center = moved.sorted_words()[center_index]
        found = mdskit.distance_distribution_from(moved, center)
        closed = mdskit.weight_distribution_formula(n, k, q)
        return None if found == closed else f"{found} != {closed}"

    def pwe():
        spec = mdskit.PartitionSpec(n, [block, rest])
        bad = [(a, b) for a in range(len(block) + 1) for b in range(len(rest) + 1)
               if mdskit.partition_weight_enumerator_bruteforce(
                   state["normalized"], spec, (a, b))
               != mdskit.partition_weight_enumerator_formula(n, k, q, spec, (a, b))]
        return None if not bad else f"profiles {bad} differ"

    def residual():
        shapes = []
        for positions, values in residuals:
            out = mdskit.residual(state["moved"], mdskit.ResidualSpec(positions, values))
            shapes.append((out.n, out.k))
        expected = [(n - t, k - t) for t in range(1, k + 1)]
        return None if shapes == expected else f"shapes {shapes}"

    steps = (built, moves, mds, round_trip, normalize, weights, distances, pwe, residual)
    return [(f"{name}.{step.__name__}", step) for step in steps]


def bigcode_ops(rng):
    """A library pipeline on five large codes; the seed orders the codes
    and draws every input of every step."""
    codes = list(BIG_CODES)
    rng.shuffle(codes)
    return [op for name, shape, build in codes for op in _pipeline(name, shape, build, rng)]


WORKLOADS = {"sweep": sweep_ops, "search": search_ops, "bigcode": bigcode_ops}


def main(argv):
    workload, seed, mode = argv
    ops = WORKLOADS[workload](random.Random(int(seed)))
    tracer = tracing.install(mdskit) if mode == "traced" else None
    first_call = time.monotonic()
    if mode == "setup":
        print(json.dumps({"first_call": first_call}))
        return 0

    failures = []
    clock = speed.SpeedClock()
    start = time.perf_counter()
    clock.start()
    for name, op in ops:
        try:
            problem = tracer.call(name, op) if tracer else op()
        except Exception as exc:  # a failed op is counted, the pass goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append([name, problem])
    clock.stop()
    wall = time.perf_counter() - start

    record = {
        "wall_s": clock.reference_s,
        "raw_wall_s": wall - clock.sampling_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": len(ops),
        "failures": failures,
    }
    if tracer:
        # spans include the sampling handler's share, which the same
        # factor as the pass's removes along with the machine's speed
        scale = clock.reference_s / wall
        record["layers"] = {name: value * scale if name.endswith("_s") else value
                            for name, value in tracing.layer_metrics(tracer).items()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
