"""Function-level spans around mdskit's public functions, installed from
outside the package.

A wrapped function is rebound everywhere the package holds a reference to
it: mdskit's modules import each other's functions by name
(`from .codes import is_mds`), so patching the defining module alone would
miss the calls made from search, transforms, cli and the package root.
Constructors are wrapped on the class (`Code.__init__`, `Field.__init__`)
and the class names stay bound to the classes, because `Code.__eq__` tests
`isinstance(other, Code)`.

Per-word helpers (`hamming_distance`, `weight`, `Field.add`/`mul`/
`poly_eval`) are not wrapped: they run millions of times per pass.  Their
work is derived from input sizes by the counter hooks below instead, and
the derived counts are named as computed in the benchmark's README.
"""

import sys
from time import perf_counter


def _one(args, result):
    return 1


def _words_in_arg(args, result):
    return len(args[0].words)


def _words_in_result(args, result):
    return len(result.words) if hasattr(result, "words") else 0


def _full_scan_pairs(args, result):
    """Pairs of a full scan; a call that found d = 1 stopped early and
    its pairs are not counted."""
    if result == 1:
        return 0
    size = len(args[0].words)
    return size * (size - 1) // 2


_BRUTEFORCE = ("spectra.bruteforce", (("spectra.words_scanned", _words_in_arg),))
_BUILD = ("constructions.build", (("constructions.words_built", _words_in_result),))
_MOVES = ("transforms.moves", ())
_THEOREMS = ("search.theorems", ())
_FORMULA = ("spectra.formula", ())

# (module, function) -> (span group, counter hooks).  A group's self time
# is the sum of its spans' durations minus the time of their child spans.
FUNCTIONS = {
    ("cli", "run"): ("cli", ()),
    ("search", "exists_mds"): ("search.exists", (("search.exists_calls", _one),)),
    ("search", "enumerate_mds"): ("search.enumerate", (
        ("search.enumerate_calls", _one),
        ("search.codes_emitted", lambda args, result: result.count),
        ("search.incomplete", lambda args, result: int(not result.complete)))),
    ("search", "verify_bounds"): _THEOREMS,
    ("search", "verify_spectrum_theorems"): _THEOREMS,
    ("search", "verify_distribution"): _THEOREMS,
    ("codes", "is_mds"): ("codes.min_distance", ()),
    ("codes", "min_distance"): ("codes.min_distance", (
        ("codes.min_distance_calls", _one),
        ("codes.min_distance_pairs", _full_scan_pairs))),
    ("codes", "parse_code"): ("codes.io", (
        ("codes.io_bytes", lambda args, result: len(args[0].encode())),)),
    ("codes", "format_code"): ("codes.io", (
        ("codes.io_bytes", lambda args, result: len(result.encode())),)),
    ("spectra", "weight_distribution_bruteforce"): _BRUTEFORCE,
    ("spectra", "weight_spectrum"): _BRUTEFORCE,
    ("spectra", "partition_weight_enumerator_bruteforce"): _BRUTEFORCE,
    ("spectra", "distance_distribution_from"): _BRUTEFORCE,
    ("spectra", "partition_distance_enumerator"): _BRUTEFORCE,
    ("spectra", "weight_distribution_formula"): _FORMULA,
    ("spectra", "partition_weight_enumerator_formula"): _FORMULA,
    ("spectra", "predicted_spectrum"): _FORMULA,
    ("transforms", "apply_move"): _MOVES,
    ("transforms", "apply_moves"): _MOVES,
    ("transforms", "normalize_to_zero"): _MOVES,
    ("transforms", "classify_binary"): _MOVES,
    ("transforms", "residual"): ("transforms.residual", (
        ("transforms.residual_calls", _one),)),
    ("constructions", "repetition_code"): _BUILD,
    ("constructions", "universe_code"): _BUILD,
    ("constructions", "sum_zero_code"): _BUILD,
    ("constructions", "rs_code"): _BUILD,
    ("constructions", "extended_rs_code"): _BUILD,
    ("constructions", "doubly_extended_rs"): _BUILD,
    ("constructions", "cyclic_mols"): _BUILD,
    ("constructions", "mols_to_code"): _BUILD,
    ("constructions", "code_to_mols"): _BUILD,
}

# (module, class) -> (span group, counter hooks), wrapped at __init__
CONSTRUCTORS = {
    ("codes", "Code"): ("codes.code_init", (("codes.code_init_words", _words_in_arg),)),
    ("galois", "Field"): ("galois.field", (("galois.field_calls", _one),)),
}

# span groups reported as self time, under the metric name <group>_s,
# except the CLI, whose self time is parsing and report formatting
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    **{group: f"{group}_s" for group, _ in
       list(FUNCTIONS.values()) + list(CONSTRUCTORS.values()) if group != "cli"},
}


class Tracer:
    """Spans kept in memory as (name, start, end, parent index); one
    caller, no threads, so a stack gives each span its parent."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _leave(self, index, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def wrap(self, name, fn, hooks):
        def traced(*args, **kwargs):
            index, parent = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(index, parent, name, start)
            for counter, hook in hooks:
                self.counts[counter] = self.counts.get(counter, 0) + hook(args, result)
            return result
        return traced

    def call(self, name, fn):
        """Run fn() as a root span named name, e.g. one benchmark op."""
        index, parent = self._enter()
        start = perf_counter()
        try:
            return fn()
        finally:
            self._leave(index, parent, name, start)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         self_s + end - start - child[i])
        return out


def install(package):
    """Wrap every function and constructor above; return the Tracer."""
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package.__name__
                                     or name.startswith(package.__name__ + "."))]
    for (module, attr), (group, hooks) in FUNCTIONS.items():
        # a module the workload never imports (cli) gets no spans
        source = sys.modules.get(f"{package.__name__}.{module}")
        if source is None:
            continue
        original = getattr(source, attr)
        wrapper = tracer.wrap(group, original, hooks)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
    for (module, attr), (group, hooks) in CONSTRUCTORS.items():
        cls = getattr(sys.modules[f"{package.__name__}.{module}"], attr)
        cls.__init__ = tracer.wrap(group, cls.__init__, hooks)
    return tracer


CASE_PREFIX = "search.case."


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass: self time per span group,
    counters, and the total time of each op span named search.case.*."""
    metrics = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    for name, (calls, total, self_s) in tracer.totals().items():
        if name in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[name]] = self_s
        elif name.startswith(CASE_PREFIX):
            metrics[f"{name}_s"] = total
    metrics.update(tracer.counts)
    return metrics
