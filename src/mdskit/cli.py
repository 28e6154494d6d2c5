"""Command line front end.

Reports are deterministic `key = value` lines on stdout.  Positions,
blocks, and move serializations are 1-based on the command line; the
library is 0-based throughout.  Exit status: 0 on success, 1 when a
well-formed input fails a verification (not MDS, spectra disagree,
classification contradicted) or a sweep checks nothing, 2 on usage or
input errors.
"""

import argparse
import functools
import os
import sys
import warnings

from .codes import format_code, information_set_check, is_mds, read_code, require_mds, write_code
from .constructions import (
    cyclic_mols,
    doubly_extended_rs,
    extended_rs_code,
    mols_to_code,
    repetition_code,
    rs_code,
    sum_zero_code,
    universe_code,
)
from .errors import (
    BadPartition,
    BadPositions,
    CodeFileError,
    MdskitError,
    NotMds,
    OutOfStatedRegime,
    TheoremViolation,
    ZeroWordAbsent,
)
from .search import (
    MODES,
    SWEEP_LIMIT_PER_SHAPE,
    SWEEP_MAX_NODES,
    SearchSpec,
    check_theorems,
    enumerate_mds,
)
from .spectra import (
    PartitionSpec,
    distance_distribution_from,
    partition_weight_enumerator_bruteforce,
    partition_weight_enumerator_formula,
    weight_distribution_bruteforce,
    weight_distribution_formula,
)
from .transforms import ResidualSpec, classify_binary, format_move, normalize_to_zero, residual


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _block_list(text):
    """'1,2/3,4' -> [[1, 2], [3, 4]] (still 1-based)."""
    return [_int_list(part) for part in text.split("/")]


def _format_set(values):
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _bool(value):
    return "true" if value else "false"


def _positions_from_cli(raw, n):
    """1-based CLI positions of a length-n code to 0-based, preserving
    order; a position outside 1..n is refused in CLI terms."""
    if any(not 1 <= p <= n for p in raw):
        raise BadPositions(f"positions must lie in 1..{n}")
    return [p - 1 for p in raw]


def _load(path):
    if not os.path.exists(path):
        raise CodeFileError(f"no such file: {path}")
    return read_code(path)


def _print_shape(shape, d=None):
    """The q, n and k lines that open a report on a code or search shape, then d if given."""
    print(f"q = {shape.q}")
    print(f"n = {shape.n}")
    print(f"k = {shape.k}")
    if d is not None:
        print(f"d = {d}")


def _emit_code(code, out):
    """Write to `out` when given (and report it), else print the file text.
    A one-word (k = 0) code has no minimum distance, so its report has no
    d line; the report is settled before anything is written."""
    if out:
        d = is_mds(code).d if code.k > 0 else None
        write_code(code, out)
        _print_shape(code, d)
        print(f"out = {out}")
    else:
        sys.stdout.write(format_code(code))


# ---------------------------------------------------------------- commands

# construct's families: the flags each needs and its builder, which checks
# every bound (the field families pass the order, checked before the
# field); rs evaluates at every field element 0..q-1 unless given
# --points.  A family takes no other flag but --out, and --points only for
# rs.  The lambdas look builders up as module globals at call time.
_FAMILIES = {
    "repetition": (("n", "q"), lambda a: repetition_code(a.n, a.q)),
    "universe": (("k", "q"), lambda a: universe_code(a.k, a.q)),
    "sum-zero": (("k", "q"), lambda a: sum_zero_code(a.k, a.q)),
    "rs": (("k", "q"), lambda a: rs_code(a.q, a.k, range(a.q) if a.points is None else a.points)),
    "ext-rs": (("k", "q"), lambda a: extended_rs_code(a.q, a.k)),
    "dx-rs": (("q",), lambda a: doubly_extended_rs(a.q)),
    "mols": (("p",), lambda a: mols_to_code(cyclic_mols(a.p))),
}


def _cmd_construct(args):
    flags, build = _FAMILIES[args.family]
    missing = [f"--{name}" for name in flags if getattr(args, name) is None]
    if missing:
        raise MdskitError(f"family {args.family!r} needs {' '.join(missing)}")
    taken = flags + ("points",) if args.family == "rs" else flags
    extra = [f"--{name}" for name in ("n", "k", "q", "p", "points")
             if name not in taken and getattr(args, name) is not None]
    if extra:
        raise MdskitError(f"family {args.family!r} takes no {' '.join(extra)}")
    _emit_code(build(args), args.out)
    return 0


def _cmd_verify(args):
    code = _load(args.file)
    report = is_mds(code)
    good = None
    if args.information_set is not None:
        good = information_set_check(code, _positions_from_cli(args.information_set, code.n))
    _print_shape(code, report.d)
    print(f"singleton_bound = {report.singleton_bound}")
    print(f"is_mds = {_bool(report.is_mds)}")
    ok = report.is_mds
    if good is not None:
        print(f"information_set = {_bool(good)}")
        ok = ok and good
    return 0 if ok else 1


def _require_mds_with_zero(code):
    report = require_mds(code)
    if not code.contains_zero():
        raise ZeroWordAbsent("code does not contain the zero word; run normalize first")
    return report


def _cmd_spectrum(args):
    code = _load(args.file)
    report = _require_mds_with_zero(code)
    brute = weight_distribution_bruteforce(code)
    closed = weight_distribution_formula(code.n, code.k, code.q)
    _print_shape(code, report.d)
    print(f"total = {brute.total()}")
    print(f"W = {_format_set(brute.spectrum())}")
    for w in sorted(brute.spectrum()):
        print(f"E({w}) = {brute[w]}")
    print(f"regime = {'stated' if code.q >= code.k else 'empirical'}")
    match = brute == closed
    print(f"match = {_bool(match)}")
    return 0 if match else 1


def _cmd_pwe(args):
    code = _load(args.file)
    report = _require_mds_with_zero(code)
    blocks = [_positions_from_cli(b, code.n) for b in args.partition]
    if sorted(p for b in blocks for p in b) != list(range(code.n)):
        raise BadPartition(f"blocks do not partition 1..{code.n}")
    spec = PartitionSpec(code.n, blocks)
    profile = tuple(args.profile)
    brute = partition_weight_enumerator_bruteforce(code, spec, profile)
    closed = partition_weight_enumerator_formula(code.n, code.k, code.q, spec, profile)
    _print_shape(code, report.d)
    partition_echo = "/".join(",".join(str(p + 1) for p in sorted(b)) for b in blocks)
    print(f"partition = {partition_echo}")
    print(f"profile = {','.join(str(w) for w in profile)}")
    print(f"w = {sum(profile)}")
    print(f"bruteforce = {brute}")
    print(f"formula = {closed}")
    match = brute == closed
    print(f"match = {_bool(match)}")
    return 0 if match else 1


def _cmd_distances(args):
    code = _load(args.file)
    report = require_mds(code)
    center = tuple(args.center) if args.center is not None else code.sorted_words()[0]
    dist = distance_distribution_from(code, center)
    closed = weight_distribution_formula(code.n, code.k, code.q)
    _print_shape(code, report.d)
    print(f"center = {' '.join(str(s) for s in center)}")
    for w in sorted(dist.counts):
        print(f"D({w}) = {dist[w]}")
    match = dist == closed
    print(f"match = {_bool(match)}")
    return 0 if match else 1


def _cmd_residual(args):
    code = _load(args.file)
    spec = ResidualSpec(_positions_from_cli(args.positions, code.n), args.values)
    _emit_code(residual(code, spec), args.out)
    return 0


def _cmd_normalize(args):
    code = _load(args.file)
    normalized, moves = normalize_to_zero(code, args.word)
    write_code(normalized, args.out)
    _print_shape(code)
    print(f"moves = {len(moves)}")
    for move in moves:
        print(f"move = {format_move(move)}")
    print(f"out = {args.out}")
    return 0


def _cmd_classify(args):
    code = _load(args.file)
    result = classify_binary(code)
    _print_shape(code)
    print(f"kind = {result.kind.value}")
    print(f"moves = {len(result.moves)}")
    for move in result.moves:
        print(f"move = {format_move(move)}")
    return 0


def _cmd_search(args):
    if args.emit_codes and args.mode != "collect":
        raise MdskitError("--emit-codes needs --mode collect")
    # a shape the guards refuse raises here and leaves no directory behind
    spec = SearchSpec(args.n, args.k, args.q, require_zero=args.require_zero, mode=args.mode,
                      limit=args.limit, max_nodes=args.max_nodes)
    if args.emit_codes:
        os.makedirs(args.emit_codes, exist_ok=True)
    result = enumerate_mds(spec)
    _print_shape(args, args.n - args.k + 1)
    print(f"require_zero = {_bool(args.require_zero)}")
    print(f"mode = {args.mode}")
    if args.mode == "exists":
        print(f"exists = {_bool(result.count > 0)}")
    else:
        print(f"count = {result.count}")
    print(f"complete = {_bool(result.complete)}")
    if args.emit_codes:
        for idx, code in enumerate(result.codes, start=1):
            path = os.path.join(args.emit_codes, f"code-{idx:04d}.txt")
            write_code(code, path)
            print(f"code[{idx}] = {path}")
    if args.stats:
        print(f"nodes = {result.nodes}")
        print(f"masks = {result.masks}")
    return 0


def _cmd_check_theorems(args):
    lines = check_theorems(args.q, args.max_n, limit_per_shape=args.limit_per_shape,
                           max_nodes=args.max_nodes)
    print(f"q = {args.q}")
    print(f"max_n = {args.max_n}")
    idx = failures = skips = 0
    for idx, (status, claim) in enumerate(lines, start=1):
        print(f"check[{idx}] = {status} {claim}")
        failures += status == "fail"
        skips += status == "skip"
    # a sweep that skipped every line checked nothing, so it passes nothing
    result = "fail" if failures else "none" if skips == idx else "pass"
    print(f"checks = {idx}")
    print(f"failures = {failures}")
    print(f"result = {result}")
    return 0 if result == "pass" else 1


# ---------------------------------------------------------------- parser

@functools.cache
def build_parser():
    """The argparse parser, built on the first call and shared after it:
    parse_args leaves a parser as it was."""
    parser = argparse.ArgumentParser(
        prog="mdskit",
        description="Construct, verify, and dissect MDS codes over small alphabets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code from a named family")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--p", type=int, help="prime order for the mols family")
    p.add_argument("--points", type=_int_list, help="evaluation points for rs")
    p.add_argument("--out", help="write the code file here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a code file for the MDS property")
    p.add_argument("file")
    p.add_argument("--information-set", type=_int_list,
                   help="1-based positions that should determine codewords")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="weight distribution, brute force vs closed form")
    p.add_argument("file")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("pwe", help="partition weight enumerator at one profile")
    p.add_argument("file")
    p.add_argument("--partition", type=_block_list, required=True,
                   help="1-based blocks, e.g. 1,2/3,4")
    p.add_argument("--profile", type=_int_list, required=True,
                   help="weight in each block, e.g. 1,2")
    p.set_defaults(func=_cmd_pwe)

    p = sub.add_parser("distances", help="distance distribution from a codeword")
    p.add_argument("file")
    p.add_argument("--center", type=_int_list,
                   help="codeword symbols, e.g. 0,1,2 (default: least word)")
    p.set_defaults(func=_cmd_distances)

    p = sub.add_parser("residual", help="fix positions to values, delete them")
    p.add_argument("file")
    p.add_argument("--positions", type=_int_list, required=True, help="1-based")
    p.add_argument("--values", type=_int_list, required=True)
    p.add_argument("--out", help="write the residual code here instead of stdout")
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("normalize", help="move a codeword onto zero")
    p.add_argument("file")
    p.add_argument("--word", type=_int_list,
                   help="codeword to send to zero (default: least word)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("classify-binary", help="name the binary MDS shape")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("search", help="exhaustive walk over (n, k)_q MDS codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--require-zero", action="store_true")
    p.add_argument("--mode", choices=MODES, default="count")
    p.add_argument("--limit", type=int)
    p.add_argument("--emit-codes", metavar="DIR",
                   help="in collect mode, write one file per code here")
    p.add_argument("--max-nodes", type=int,
                   help="stop after this many partial extensions (default: no cap)")
    p.add_argument("--stats", action="store_true",
                   help="also report the walk nodes visited and the masks built")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("check-theorems",
                       help="verify spectra, distributions, and length bounds by search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--limit-per-shape", type=int, default=SWEEP_LIMIT_PER_SHAPE,
                   help="cap on codes checked per (n, k), each normal form "
                        "counted with its relabeling class")
    p.add_argument("--max-nodes", type=int, default=SWEEP_MAX_NODES,
                   help="walk budget per shape; unresolved shapes are skipped")
    p.set_defaults(func=_cmd_check_theorems)

    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    # the closed forms warn OutOfStatedRegime when q < k; a report is
    # its stdout alone, so no command passes that warning on to stderr
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OutOfStatedRegime)
            return args.func(args)
    except (NotMds, TheoremViolation, ZeroWordAbsent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MdskitError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
