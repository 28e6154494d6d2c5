"""Exhaustive search for MDS codes, and empirical theorem checks.

An (n, k)_q MDS code is exactly a set of q^k words of length n over
{0..q-1} with pairwise distance at least n-k+1.  Any such code projects
bijectively onto its first k coordinates, so it holds exactly one word
per "slot" (per k-symbol information prefix).  The walk below fills the
q^k slots in lexicographic order, which visits every code exactly once,
choosing at each step a word compatible with every word placed so far.
It prunes on one exact rule: every unfilled slot keeps a compatible
candidate.  The rule is exact, since any completion takes a word from
each unfilled slot, so no code is lost.

Compatibility sets are kept as one bitmask per candidate word, and the
candidates of each slot form one bit field of it, so a node costs an
integer AND plus one add-and-mask test over every unfilled slot at once:
about 0.65 us in all, mask builds included, on the (4,3)_4 count (3035
nodes, 177 masks), in Python 3.11 on a shared 2-core x86-64 machine.
A mask is built bit-sliced the first time its candidate is chosen below
the last slot (codes.symbol_masks, codes.agreement_counters): a
threshold count over one big int per (position, symbol) marks every
word agreeing with it in k or more positions, i.e. lying at distance
below d.  When d < k the count runs to the nearer threshold: over the
complements of those ints, built once per walk, it marks every word
differing from the candidate in d or more positions, which is the mask
itself.  A candidate the walk never places, or places only in the last
slot, never gets a mask, and in most walks that is most candidates.  So
the walk is bounded by the mask bits it has built, _MASK_BIT_LIMIT, not
by the number of candidates.

Counting, existence and the theorem sweep walk one code per relabeling
class: relabeling symbols within each position preserves all distances,
and the codes in the normal form of _canonical_candidates, which fixes
the labels of every position but the last information position k-1,
meet every class exactly once, so a count is the number of normal forms
times the class size of _class_size, ((q-1)!)^(n-1) when n > k.  Only
collect mode, which must return every code, walks them all.
Length-bound checks rely on one more closure fact, recorded where used:
deleting a coordinate of an MDS code leaves an MDS code, so
non-existence at length L rules out every length above L as well.

Two shapes skip the walk over length-n words.  At n = k, d = 1, so the
universe is the one code.  At k = 2, count and exists grow codes one
coordinate at a time instead (_walk_squares).  An (n, 2)_q code is a
set of n-2 mutually orthogonal Latin squares, and its normal forms of
length 3 are the reduced Latin squares, which _walk finds.  Deleting the
last coordinate of a normal form of length n > 3 leaves a normal form of
length n-1, whose q^2 words that last coordinate splits into q
transversals: sets of q words, one per row (first symbol), that differ
pairwise in every position.  Conversely each cover of the words of a
length-(n-1) normal form by q disjoint transversals is one extension in
normal form: each transversal holds one word (0, y, y,..,y), and the
normal form gives its words the new symbol y.  So every normal form of
length n is reached exactly once, from the normal form its deletion
leaves, by one cover.  Covers are found label by label, by the walk's
own search (_dfs): candidate (y, i) gives word i the new symbol y, and
slot (y, x), in order of y and then x, picks the word of row x labelled
y.  Two candidates are compatible when they give different words
different labels, or the same label to two words that differ in every
position, and the word (0, y) may take only the label y.  So each full
choice is one cover, found once.
"""

from bisect import bisect_left
from collections import namedtuple
from itertools import product
from math import factorial

from .codes import Code, agreement_counters, length_bound, require_mds, symbol_masks
from .errors import (
    InvalidParameters,
    SearchSpaceTooLarge,
    TheoremViolation,
    ZeroWordAbsent,
    check_caps,
    check_integers,
    check_length,
    check_power,
    check_symbols,
    check_word_limit,
    shown,
)
from .spectra import (
    closed_form_distribution,
    predicted_spectrum,
    weight_distribution_bruteforce,
)
from .transforms import classify_binary

# the search guard on code length, which also bounds check_theorems'
# max_n and verify_bounds' k_max, and the sweep's default caps on codes
# checked and walk nodes per shape; a search keeps errors.MAX_WORDS too
MAX_LENGTH = 12
SWEEP_LIMIT_PER_SHAPE = 512
SWEEP_MAX_NODES = 200000

# words of length n the walk may list: q^n
_UNIVERSE_LIMIT = 2 ** 18
# compatibility-mask bits a walk may build: 32 MiB
_MASK_BIT_LIMIT = 2 ** 28

MODES = ("count", "exists", "collect")


class SearchSpec(namedtuple("SearchSpec", "n k q require_zero mode limit max_nodes")):
    """What to search for and how far to let the walk grow.

    max_nodes bounds the number of partial extensions tried; a walk that
    exhausts it stops with complete=False rather than running without
    bound, since backtracking cost is exponential in the worst case.
    A spec is checked when it is built: a shape past the word, length,
    universe or symbol limit raises SearchSpaceTooLarge there, before any
    walk.
    """
    __slots__ = ()
    # _replace builds through _make: send it through __new__ as well
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n, k, q, require_zero=False, mode="count", limit=None, max_nodes=None):
        self = super().__new__(cls, n, k, q, require_zero, mode, limit, max_nodes)
        check_integers(n=self.n, k=self.k, q=self.q)
        check_caps(limit=self.limit, max_nodes=self.max_nodes)
        check_word_limit(self.q, self.k)
        if self.q < 2 or self.k < 1 or self.n < self.k:
            raise InvalidParameters("bad search shape ({})".format(", ".join(
                shown(name, value) for name, value in zip("nkq", self[:3]))))
        if self.mode not in MODES:
            raise InvalidParameters(f"mode must be one of {MODES}")
        if not isinstance(self.require_zero, bool):
            raise InvalidParameters(f"require_zero={self.require_zero!r} is not a bool")
        check_length(self.n, MAX_LENGTH, "length limit")
        check_power(self.q, self.n, _UNIVERSE_LIMIT, "q^n", "universe limit")
        check_symbols(self.q)
        return self


class SearchResult(namedtuple("SearchResult", "spec count codes complete nodes masks",
                              defaults=((), True, 0, 0))):
    """What a walk found, whether it ran to completion, how many nodes
    it visited and how many compatibility masks it built.  A node is a
    word placed; for k = 2 and n > 3 the nodes also count every label
    given while growing the squares, row-0 words included, and masks
    counts the square walk's masks only: exists (4,2)_6 visits 826151
    nodes and builds 111 masks."""
    __slots__ = ()


def _compatibility(w, full, masks, k):
    """The compatibility mask of word w, bits as in masks: bit j says w
    and the j-th word are at distance >= d = n-k+1, i.e. agree in fewer
    than k positions.  full holds a bit for every word.  A word agrees
    with itself in all n >= k positions, so it is never compatible with
    itself."""
    return full & ~agreement_counters(w, full, masks, k)[k]


def _compatibilities(cand, n, k, q):
    """compat(j), the compatibility mask of candidate j as _compatibility
    gives it, counted to the nearer threshold: agreeing in k or more
    positions is differing in at most d-1, so when d = n-k+1 < k the
    masks count differences up to d, over difference masks built once,
    and the words counted are the compatible ones themselves."""
    masks = symbol_masks(cand, n, q)
    full = (1 << len(cand)) - 1
    d = n - k + 1
    if d < k:
        differ = [[full ^ m for m in column] for column in masks]
        return lambda j: agreement_counters(cand[j], full, differ, d)[d]
    return lambda j: _compatibility(cand[j], full, masks, k)


def _layout(start):
    """The slot layout _dfs walks, (start, low, high, every, need), for
    slot t holding the bit field of candidates start[t]..start[t+1]-1 (at
    least one; start[0] = 0): high holds the top bit of each field and
    low every bit below it, every[t] the candidates of slot t shifted
    down to bit 0, and need[t] the top bit of each slot after t, filled
    in by _dfs when depth t is first tested.  Searches over the same
    slots may share one layout."""
    high = sum(1 << (end - 1) for end in start[1:])
    every = [(1 << (end - begin)) - 1 for begin, end in zip(start, start[1:])]
    return start, (1 << start[-1]) - 1 - high, high, every, [None] * (len(start) - 1)


def _walk(q, n, k, cand, emit, max_nodes, spent=None):
    """Depth-first walk over all MDS codes whose words come from cand,
    filling one word per information prefix in lexicographic prefix
    order, by _dfs with the compatibility masks of _compatibilities.
    Returns (complete, nodes, built) as _dfs does.  Words of cand may
    be product's tuples, made bytes rows here once they are filtered:
    bytes rows cost three times what product's tuples do to list."""
    cand = sorted(map(bytes, cand))

    # cand is sorted, so words sharing an information prefix (the first k
    # symbols) are contiguous, and a k-byte prefix sorts just before every
    # word it extends: slot t, of the t-th prefix in lexicographic order,
    # holds candidates start[t]..start[t+1]-1
    start = [bisect_left(cand, prefix) for prefix in map(bytes, product(range(q), repeat=k))]
    start.append(len(cand))
    # a slot with no candidate leaves no code to find
    if any(begin == end for begin, end in zip(start, start[1:])):
        return True, 0, 0
    return _dfs(cand, _layout(start), _compatibilities(cand, n, k, q), emit, max_nodes, spent)


def _dfs(cand, layout, compat, emit, max_nodes, spent=None, avail=None):
    """Depth-first search for one candidate per slot of layout (see
    _layout), with every pair chosen compatible: compat(j) returns
    candidate j's mask, bit i set when candidates i and j may both be
    chosen.  avail, when given, holds the candidates allowed at all.
    Calls emit once per full choice with its candidates in slot order
    and stops early when emit returns True.  Returns (complete, nodes,
    built): True when the search ran to completion, the number of
    candidates it placed, and the number of masks it built.  Raises
    SearchSpaceTooLarge rather than build masks of more than
    _MASK_BIT_LIMIT bits in all.

    spent, a one-item list, lets nested searches share the max_nodes
    budget: the search counts its nodes on from spent[0], stores the
    count there before each call to emit and at the end, and goes on
    from the count emit leaves there; nodes is then that shared count.

    Memory: masks[j], candidate j's mask, is built when j is first
    chosen below the last slot, and the layout's need[t] when depth t is
    first tested.  Depth t is reached only below t chosen candidates,
    each with a built mask, and avails[t] is set only there.  So the
    m-bit ints the search holds (masks, need and avails entries) number
    at most about three per built mask, and the mask bound bounds its
    memory too.  A need filled in for every slot up front would hold one
    m-bit int per slot, whatever the masks built."""
    start, low, high, every, need = layout
    m = len(cand)
    last = len(start) - 2
    # an int, since the node test compares an int faster than inf
    budget = 1 << 63 if max_nodes is None else max_nodes

    # depth t's untried candidates (as in every), allowed set, start[t] and
    # need[t] are the locals rest, allowed, base and after; descending
    # parks them in rests, avails (and chosen), backtracking reads them back
    masks = [None] * m
    built = 0
    avails = [0] * (last + 1)
    rests = [0] * (last + 1)
    chosen = [0] * (last + 1)
    allowed = (1 << m) - 1 if avail is None else avail
    rest = allowed & every[0]
    base = 0
    after = need[0]

    if spent is None:
        spent = [0]
    complete = True
    nodes = spent[0]
    t = 0
    while True:
        if not rest:
            if not t:
                break
            t -= 1
            rest = rests[t]
            allowed = avails[t]
            base = start[t]
            after = need[t]
            continue
        if nodes >= budget:
            complete = False
            break
        nodes += 1
        bit = rest & -rest
        rest ^= bit
        j = base + bit.bit_length() - 1

        if t == last:
            chosen[t] = j
            spent[0] = nodes
            stop = emit([cand[c] for c in chosen])
            nodes = spent[0]
            if stop:
                complete = False
                break
            continue

        mask = masks[j]
        if mask is None:
            built += 1
            if built * m > _MASK_BIT_LIMIT:
                raise SearchSpaceTooLarge(
                    f"masks x bits = {built} x {m} exceeds the mask bit limit "
                    f"{_MASK_BIT_LIMIT}")
            mask = masks[j] = compat(j)
        # prune unless every unfilled slot keeps a candidate: adding low
        # carries into a field's top bit when child has a bit below it, and
        # or-ing child in covers the top bit itself
        child = allowed & mask
        if after is None:
            after = need[t] = high & (-1 << start[t + 1])
        if ((child & low) + low | child) & after == after:
            rests[t] = rest
            avails[t] = allowed
            chosen[t] = j
            t += 1
            base = start[t]
            rest = (child >> base) & every[t]
            allowed = child
            after = need[t]

    spent[0] = nodes
    return complete, nodes, built


def _zero_candidates(k, universe):
    """Candidates of the codes containing the zero word: any other word
    with an all-zero information prefix has weight at most n-k < d, so
    the zero slot is pinned to the zero word.  A word has weight at
    least d = n-k+1 exactly when fewer than k of its symbols are 0."""
    return [w for w in universe if w.count(0) < k or not any(w)]


def _canonical_candidates(n, k, universe):
    """Candidates of the codes in a normal form, one per relabeling
    class.  Relabeling symbols within each position preserves all
    distances, and composing such relabelings carries any (n, k)_q MDS
    code onto one that

      - contains the zero word,
      - holds, for each y, the word (0,..,0, y, y,..,y) at information
        prefix (0,..,0, y): the projections of the prefix-(0,..,0,y)
        words onto any later position are a bijection in y fixing 0, so
        a relabeling of that position straightens them to y,
      - for n > k and each information position i <= k-2, carries
        symbol x at position k in the word whose information prefix
        holds x at position i and 0 elsewhere: those q words agree in
        the other k-1 information positions, so their symbols at
        position k are a bijection in x fixing 0, and a relabeling of
        position i straightens them without disturbing any other pinned
        word, since each of those carries 0 at position i.

    Position k-1 is never relabeled: the words (0,..,0, y, y,..,y) tie
    its labels to those of positions k..n-1.  A code is in this normal
    form exactly when all its words are among the candidates returned.
    """
    out = []
    for w in _zero_candidates(k, universe):
        if not any(w[:k - 1]) and w[k:] != w[k - 1:k] * (n - k):
            continue
        if n > k and not w[k - 1] and w[:k].count(0) == k - 1 and w[k] != max(w[:k]):
            continue
        out.append(w)
    return out


def _class_size(n, k, q, require_zero):
    """How many (n, k)_q MDS codes each normal form of
    _canonical_candidates stands for: the codes containing the zero
    word, or all codes when require_zero is false.

    Let H be the group of symbol relabelings that fix 0 at each
    normalized position, positions 0..k-2 and k..n-1 when n > k, and the
    identity elsewhere.  So |H| = ((q-1)!)^(n-1) for n > k, and 1 for
    n = k.  H preserves distances and the zero word, so it permutes the
    MDS codes containing zero, and every orbit holds a normal form
    (_canonical_candidates).  Say h in H carries a normal form C onto a
    normal form.  h moves no information prefix of the form
    (0,..,0, y), so it sends C's word (0,..,0, y, y,..,y) to the word
    with that prefix, which must again read y at every position p >= k:
    each relabeling there is the identity.  Then, for each i <= k-2, h
    sends C's word whose prefix holds x at position i (0 elsewhere),
    carrying x at position k, to the word whose prefix holds s(x) there,
    where s relabels position i; it still carries x at position k, so
    s(x) = x.  Hence h = 1: only the identity fixes a code, each orbit
    holds |H| codes, and exactly one of them is in normal form.

    Without the zero word: translating every word by a fixed vector,
    symbol-wise mod q, preserves distances and acts regularly on words.
    Pairing each code with each of its q^k words and translating that
    word onto zero counts q^k times the codes as q^n times the codes
    containing zero, a further factor q^(n-k).
    """
    size = factorial(q - 1) ** (n - 1) if n > k else 1
    return size if require_zero else size * q ** (n - k)


def _walk_squares(q, n, emit, max_nodes):
    """Walk the normal forms of the (n, 2)_q MDS codes, n >= 3, calling
    emit as _walk does: the reduced Latin squares, found by _walk, each
    grown one coordinate at a time by every cover of its words by
    transversals, found by _dfs (see the module docstring).  Returns
    (complete, nodes, built) as _walk does, where nodes counts the nodes
    of every search against max_nodes, and built the square walk's
    masks."""
    # candidate (y, i), at bit y*q^2 + i, gives word i the new symbol y;
    # slot (y, x) picks the word of row x labelled y
    side = q * q
    labels = [(y, i) for y in range(q) for i in range(side)]
    layout = _layout(list(range(0, q * side + 1, q)))
    full = (1 << q * side) - 1
    block = (1 << side) - 1
    # bit i of every label, and the row-0 words each label may not take:
    # the normal form gives word (0, y) the label y
    spread = full // block
    pin = full ^ sum((((1 << q) - 1) ^ 1 << y) << y * side for y in range(q))
    spent = [0]
    one_byte = [bytes((s,)) for s in range(q)]

    def column(symbols):
        """column[s] has bit i set when the i-th symbol is s."""
        out = [0] * q
        for i, s in enumerate(symbols):
            out[s] |= 1 << i
        return out

    # word x*q + y of a reduced square is (x, y, L[x][y]), so the first two
    # columns of the symbol masks are the same for every square
    shared = [column(i // q for i in range(side)), column(i % q for i in range(side))]

    def grow(words, masks, grow):
        """Pass to emit every normal form of length n that deleting
        coordinates leaves as words; True when the walk must stop.
        masks holds the symbol masks of words, bits as in
        codes.symbol_masks, for every position but perhaps the last.
        grow is passed itself: were it to close over its own name, each
        walk would leave a reference cycle for the collector."""
        length = len(words[0])
        if length == n:
            return emit(words)
        if len(masks) < length:
            masks = masks + [column(w[-1] for w in words)]

        # far[i]: the words differing everywhere from word i, built the
        # first time some label asks for it
        far = [None] * side

        def compat(j):
            # same label: the words in far[i]; other labels: every word but i
            y, i = divmod(j, side)
            apart = far[i]
            if apart is None:
                near = 0
                for col, s in zip(masks, words[i]):
                    near |= col[s]
                apart = far[i] = block & ~near
            return full & ~(spread << i | block << y * side) | apart << y * side

        def extend(chosen):
            label = [0] * side
            for y, i in chosen:
                label[i] = y
            return grow(list(map(bytes.__add__, words, map(one_byte.__getitem__, label))),
                        masks, grow)

        return not _dfs(labels, layout, compat, extend, max_nodes, spent, pin)[0]

    cand = _canonical_candidates(3, 2, product(range(q), repeat=3))
    return _walk(q, 3, 2, cand, lambda words: grow(words, shared, grow), max_nodes, spent)


def _walk_shape(spec, keep):
    """Walk the codes of spec's shape, passing each code's word list to
    keep when keep is given.  Collect mode walks every code
    (containing zero when spec.require_zero); count and exists walk the
    normal forms only, (n, 2)_q by _walk_squares, and weigh each by its
    class size.  An n = k shape takes no walk.  Returns a SearchResult
    without codes; a count that reaches the limit is reported as the
    limit."""
    q, n, k = spec.q, spec.n, spec.k
    collect = spec.mode == "collect"
    size = 1 if collect else _class_size(n, k, q, spec.require_zero)
    count = 0
    limit = 1 if spec.mode == "exists" else spec.limit

    def emit(words):
        nonlocal count
        count += size
        if keep is not None:
            keep(words)
        return limit is not None and count >= limit

    if n == k:
        # d = 1, so every word is compatible with every other and the
        # universe is the one code; its class size is 1
        complete, nodes, built = not emit(list(map(bytes, product(range(q), repeat=n)))), 0, 0
    elif k == 2 and not collect:
        complete, nodes, built = _walk_squares(q, n, emit, spec.max_nodes)
    else:
        cand = product(range(q), repeat=n)
        if not collect:
            cand = _canonical_candidates(n, k, cand)
        elif spec.require_zero:
            cand = _zero_candidates(k, cand)
        complete, nodes, built = _walk(q, n, k, cand, emit, spec.max_nodes)
    if limit is not None:
        count = min(count, limit)
    return SearchResult(spec, count, complete=complete, nodes=nodes, masks=built)


def enumerate_mds(spec):
    """Count, collect, or find the first of all (n, k)_q MDS codes
    (optionally only those containing the zero word).  Counts walk one
    code per relabeling class and add its class size; see _walk_shape.
    Only collect mode keeps the codes found."""
    words = []
    result = _walk_shape(spec, words.append if spec.mode == "collect" else None)
    return result._replace(codes=tuple(Code._of(spec.q, w) for w in words))


def exists_mds(n, k, q, max_nodes=None):
    """Whether any (n, k)_q MDS code exists.  Only codes in the normal
    form of _canonical_candidates are walked, which is enough: every
    code is carried onto one of them by symbol relabelings that preserve
    all distances.  A node budget that runs out before the question is
    settled raises rather than guessing."""
    spec = SearchSpec(n, k, q, require_zero=True, mode="exists", max_nodes=max_nodes)
    result = _walk_shape(spec, None)
    if result.count:
        return True
    if not result.complete:
        raise SearchSpaceTooLarge(
            f"node budget {max_nodes} exhausted before settling (n={n}, k={k})_{q}")
    return False


# ------------------------------------------------- theorem checks

class TheoremReport(namedtuple("TheoremReport", "claim passed out_of_regime detail skipped",
                               defaults=(False, "", False))):
    """One checked claim; a skipped one was not settled, for the reason
    in detail."""
    __slots__ = ()


def verify_bounds(q, k_max, max_nodes=None):
    """Confirm by exhaustive search that no (n, k)_q MDS code outruns
    length_bound(k, q), for each k in 2..k_max, one report per k.
    Checking length bound+1 suffices, because deleting any coordinate of
    a longer MDS code leaves an MDS code.  A size the guards refuse, or a
    search the node budget cannot settle, gives a skipped report that
    names the reason; a k_max past MAX_LENGTH, whose lengths are too, is refused."""
    check_integers(q=q, k_max=k_max)
    check_length(k_max, MAX_LENGTH, "length limit", "k_max")
    return [_verify_bound(q, k, max_nodes) for k in range(2, k_max + 1)]


def _verify_bound(q, k, max_nodes):
    n = length_bound(k, q) + 1
    claim = f"no (n, {k})_{q} MDS code with n > {n - 1}"
    try:
        found = exists_mds(n, k, q, max_nodes=max_nodes)
    except SearchSpaceTooLarge as exc:
        return TheoremReport(claim, False, detail=str(exc), skipped=True)
    detail = (f"found an (n={n}, k={k})_{q} MDS code" if found
              else f"searched all (n={n}, k={k})_{q} candidates up to relabeling")
    return TheoremReport(claim, not found, detail=detail)


def _check_code(code):
    """The reports of verify_spectrum_theorems and verify_distribution,
    from one MDS check and one weight count."""
    require_mds(code)
    if not code.contains_zero():
        raise ZeroWordAbsent("the theorem checks are stated for codes containing zero")
    n, k, q = code.n, code.k, code.q
    brute = weight_distribution_bruteforce(code)
    actual = brute.spectrum()
    predicted = predicted_spectrum(n, k, q)
    spectrum = [TheoremReport(
        claim=f"weight spectrum of (n={n}, k={k})_{q} with zero",
        passed=actual == predicted,
        out_of_regime=q < k,
        detail=f"actual {sorted(actual)}, predicted {sorted(predicted)}")]
    if n < q + k - 1:
        spectrum.append(TheoremReport(
            claim=f"a full-weight word exists (n={n} < q+k-1={q + k - 1})",
            passed=n in actual))
    if n == q + k - 1 and k > 2 and q > 2:
        spectrum.append(TheoremReport(
            claim=f"a full-weight word exists (n={n} = q+k-1, k>2, q>2)",
            passed=n in actual))

    closed = closed_form_distribution(n, k, q)
    if brute == closed:
        detail = "brute force matches the closed form"
    else:
        diffs = sorted(set(brute.counts) | set(closed.counts))
        bad = [w for w in diffs if brute[w] != closed[w]]
        detail = (f"mismatch at weights {bad}: "
                  f"brute {[brute[w] for w in bad]}, closed {[closed[w] for w in bad]}")
    return spectrum, TheoremReport(
        claim=f"closed-form weight distribution of (n={n}, k={k})_{q}",
        passed=brute == closed,
        out_of_regime=q < k,
        detail=detail)


def verify_spectrum_theorems(code):
    """Check the attained nonzero weights of an MDS code containing zero
    against the provable spectrum, plus the full-length-word claims."""
    return _check_code(code)[0]


def verify_distribution(code):
    """Compare the brute-force weight distribution of an MDS code
    containing zero with the closed form.  Outside the stated regime
    (q < k) the outcome is recorded as empirical agreement, not a
    theorem check."""
    return _check_code(code)[1]


def check_theorems(q, max_n, limit_per_shape=SWEEP_LIMIT_PER_SHAPE,
                   max_nodes=SWEEP_MAX_NODES):
    """Check, by search, the length bounds whose witness length fits
    under max_n, then the spectrum, distribution and (for q = 2) binary
    classification of the codes containing zero for every (n, k)_q shape
    with n <= min(max_n, length_bound(k, q)).

    Each normal form of _canonical_candidates is checked once for its
    whole class: the relabelings of _class_size fix 0 at every position,
    so they keep every word's weight.  A line's codes=N tag counts normal
    forms times their class size, capped at limit_per_shape, where the
    walk stops; a walk cut short is tagged sample.  Returns an iterator
    of the (status, claim) lines, each yielded as it is settled; bad
    arguments raise here, before any line, as do a q past MAX_SYMBOLS and
    a max_n past MAX_LENGTH."""
    check_integers(q=q)
    if q < 2:
        raise InvalidParameters(f"q must be at least 2, got {shown('', q)}")
    check_symbols(q)
    check_caps(max_n=max_n, limit_per_shape=limit_per_shape, max_nodes=max_nodes)
    check_length(max_n, MAX_LENGTH, "length limit", "max_n")
    return _check_theorems(q, max_n, limit_per_shape, max_nodes)


def _check_theorems(q, max_n, limit_per_shape, max_nodes):
    for k in range(2, max_n + 1):
        if length_bound(k, q) + 1 > max_n:
            continue
        report = _verify_bound(q, k, max_nodes)
        if report.skipped:
            yield ("skip", f"{report.claim}: {report.detail}")
        else:
            yield ("pass" if report.passed else "fail", report.claim)

    for k in range(1, max_n + 1):
        for n in range(k, min(max_n, length_bound(k, q)) + 1):
            shape = f"(n={n}, k={k})_{q}"
            forms = []
            try:
                spec = SearchSpec(n, k, q, require_zero=True, limit=limit_per_shape,
                                  max_nodes=max_nodes)
                result = _walk_shape(spec, forms.append)
            except SearchSpaceTooLarge as exc:
                yield ("skip", f"{shape}: {exc}")
                continue
            if not forms:
                if result.complete:
                    yield ("skip", f"{shape}: no codes exist")
                else:
                    yield ("skip", f"{shape}: unresolved within node budget")
                continue
            tag = f"codes={result.count}" + ("" if result.complete else " sample")

            # one "some form failed" flag per check, in the order of the lines
            failed = {"spectrum": False, "distribution": False}
            if q == 2:
                failed["binary-classification"] = False
            for words in forms:
                code = Code._of(q, words)
                spectrum, distribution = _check_code(code)
                failed["spectrum"] |= not all(rep.passed for rep in spectrum)
                failed["distribution"] |= not distribution.passed
                if q == 2:
                    try:
                        classify_binary(code)
                    except TheoremViolation:
                        failed["binary-classification"] = True
            for check, bad in failed.items():
                if check == "distribution" and q < k:
                    status = "empirical-disagree" if bad else "empirical"
                else:
                    status = "fail" if bad else "pass"
                yield (status, f"{check} {shape} {tag}")
