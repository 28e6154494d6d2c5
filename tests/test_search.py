"""Exhaustive walks: frozen counts, guards, budgets, and theorem checks."""

import re
import tracemalloc
from itertools import combinations, permutations, product
from math import factorial, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdskit
from mdskit import (
    PP,
    SP,
    BadPositions,
    BinaryClass,
    BinaryKind,
    Code,
    Field,
    InvalidParameters,
    MdsReport,
    NotMds,
    PartitionSpec,
    ResidualSpec,
    SearchResult,
    SearchSpaceTooLarge,
    SearchSpec,
    TheoremReport,
    TheoremViolation,
    ZeroWordAbsent,
    check_theorems,
    classify_binary,
    doubly_extended_rs,
    enumerate_mds,
    exists_mds,
    extended_rs_code,
    hamming_distance,
    is_mds,
    length_bound,
    partition_weight_enumerator_formula,
    predicted_spectrum,
    require_mds,
    sum_zero_code,
    verify_bounds,
    verify_distribution,
    verify_spectrum_theorems,
    weight_distribution_formula,
)
from mdskit.codes import symbol_masks, weight
from mdskit.search import (
    MAX_WORDS,
    SWEEP_LIMIT_PER_SHAPE,
    SWEEP_MAX_NODES,
    _MASK_BIT_LIMIT,
    _UNIVERSE_LIMIT,
    _canonical_candidates,
    _class_size,
    _compatibility,
    _dfs,
    _fields_hit,
    _layout,
    _slot_fields,
    _walk,
    _walk_shape,
    _zero_candidates,
)

# The full walks of these shapes take seconds; their counts are pinned
# against the literature in test_latin_counts instead.
SLOW_FULL_WALKS = {(3, 2, 5), (4, 3, 4)}


def full_walk_count(n, k, q, require_zero):
    """Oracle for count mode: walk every code of the shape, one by one."""
    universe = list(product(range(q), repeat=n))
    cand = _zero_candidates(k, universe) if require_zero else universe
    found = []
    complete, _, _ = _walk(q, n, k, cand, lambda words: found.append(1), None)
    assert complete
    return len(found)


def reference_codes(n, k, q, cand):
    """Oracle for _walk: every set of q^k words from cand, one per
    information prefix, at pairwise distance >= n-k+1, found by plain
    recursion with no masks and no prunes."""
    d = n - k + 1
    by_prefix = {}
    for w in cand:
        by_prefix.setdefault(w[:k], []).append(w)
    prefixes = list(product(range(q), repeat=k))
    found = set()

    def fill(placed):
        if len(placed) == len(prefixes):
            found.add(frozenset(placed))
            return
        for w in by_prefix.get(prefixes[len(placed)], []):
            if all(hamming_distance(w, c) >= d for c in placed):
                fill(placed + [w])

    fill([])
    return found


def small_shapes():
    """Every admissible (n, k)_q with q <= 5 and q^n <= 256.  Past q = 5
    the full walk outgrows a test: (2,1)_q alone has (q-1)! codes with zero."""
    for q in range(2, 6):
        for n in range(1, 9):
            if q ** n > 256:
                break
            for k in range(1, n + 1):
                if n <= length_bound(k, q) and (n, k, q) not in SLOW_FULL_WALKS:
                    yield n, k, q


def pairwise_compatibility(cand, d):
    """Oracle for _compatibility: bit j of row i set when cand[i] and
    cand[j] are at distance >= d, by the full pairwise scan."""
    compat = [0] * len(cand)
    for i, a in enumerate(cand):
        for j in range(i + 1, len(cand)):
            if sum(x != y for x, y in zip(a, cand[j])) >= d:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return compat


def test_spec_validation():
    with pytest.raises(InvalidParameters):
        SearchSpec(2, 3, 2)          # n < k
    with pytest.raises(InvalidParameters):
        SearchSpec(3, 2, 1)          # q < 2
    with pytest.raises(InvalidParameters):
        SearchSpec(3, 2, 2, mode="wander")
    with pytest.raises(InvalidParameters):
        SearchSpec(3, 2, 2, limit=0)
    with pytest.raises(InvalidParameters):
        SearchSpec(3, 2, 2, max_nodes=0)
    with pytest.raises(InvalidParameters):
        SearchSpec(3, 2, 3, require_zero="no")  # truthy, but not True


@pytest.mark.parametrize("n,k,q,select", [
    (6, 2, 4, _canonical_candidates),   # the _walk reference for (6,2)_4: 1786 words
    (4, 3, 4, _zero_candidates),        # the require_zero count of (4,3)_4
])
def test_compatibility_masks_match_pairwise(n, k, q, select):
    universe = list(product(range(q), repeat=n))
    # the normal form also reads n; the zero filter needs only k
    cand = sorted(select(n, k, universe) if select is _canonical_candidates
                  else select(k, universe))
    masks = symbol_masks(cand, n, q)
    full = (1 << len(cand)) - 1
    compat = [_compatibility(w, full, masks, k) for w in cand]
    assert compat == pairwise_compatibility(cand, n - k + 1)


def test_zero_candidates_match_the_weight_filter():
    # fewer than k zeros is weight >= d = n-k+1, on every shape q <= 5, n <= 6
    shapes = 0
    for q in range(2, 6):
        for n in range(1, 7):
            universe = list(product(range(q), repeat=n))
            for k in range(1, n + 1):
                expected = [w for w in universe if weight(w) >= n - k + 1 or not any(w)]
                assert _zero_candidates(k, universe) == expected, (n, k, q)
                shapes += 1
    assert shapes == 84


@pytest.mark.parametrize("n,k,q,count", [
    (3, 2, 2, 1),
    (4, 3, 2, 1),
    (5, 4, 2, 1),
    (3, 2, 3, 4),   # order-3 Latin squares with a fixed corner
])
def test_frozen_counts_with_zero(n, k, q, count):
    result = enumerate_mds(SearchSpec(n, k, q, require_zero=True, mode="count"))
    assert result.count == count
    assert result.complete


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 3), (3, 4)])
def test_repetition_like_counts(n, q):
    # with zero fixed, each position assigns distinct nonzero symbols to
    # the q-1 remaining words, so the count is ((q-1)!)^(n-1)
    result = enumerate_mds(SearchSpec(n, 1, q, require_zero=True, mode="count"))
    assert result.count == factorial(q - 1) ** (n - 1)


@pytest.mark.parametrize("require_zero", [True, False])
def test_class_count_matches_full_walk(require_zero):
    shapes = list(small_shapes())
    assert len(shapes) == 48
    for n, k, q in shapes:
        result = enumerate_mds(SearchSpec(n, k, q, require_zero=require_zero))
        assert result.complete
        assert result.count == full_walk_count(n, k, q, require_zero), (n, k, q)


def test_walk_emits_exactly_the_reference_codes():
    # every shape with q <= 5 and q^n <= 81, past the length bound too;
    # (2,1)_q alone has q! codes, so larger q outgrow the oracle
    shapes = [(n, k, q) for q in range(2, 6) for n in range(1, 7)
              if q ** n <= 81 for k in range(1, n + 1)]
    assert len(shapes) == 40
    for n, k, q in shapes:
        universe = list(product(range(q), repeat=n))
        for cand in (universe, _zero_candidates(k, universe)):
            emitted = []
            complete, _, _ = _walk(q, n, k, cand,
                                   lambda words: emitted.append(frozenset(words)), None)
            assert complete
            assert len(set(emitted)) == len(emitted), (n, k, q)
            assert set(emitted) == reference_codes(n, k, q, cand), (n, k, q)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=12), st.data())
def test_fields_hit_matches_per_slot_loop(widths, data):
    # slot layouts with width-1 fields among wider ones; each field of x
    # is empty often enough that misses are tested as well as hits
    start = [0]
    for width in widths:
        start.append(start[-1] + width)
    x = 0
    for t, width in enumerate(widths):
        bits = data.draw(st.just(0) | st.integers(1, (1 << width) - 1))
        x |= bits << start[t]
    chosen = data.draw(st.lists(st.booleans(), min_size=len(widths), max_size=len(widths)))
    low, high = _slot_fields(start)
    tops = [1 << (start[t + 1] - 1) for t in range(len(widths))]
    assert high == sum(tops)
    subset = sum(top for top, c in zip(tops, chosen) if c)
    expected = 0
    for t, top in enumerate(tops):
        field = (1 << start[t + 1]) - (1 << start[t])
        if chosen[t] and x & field:
            expected |= top
    assert _fields_hit(x, low, subset) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=5), st.data())
def test_dfs_matches_a_brute_force_filter(widths, data):
    # a random slot layout, a random symmetric compatibility relation and
    # at times a set of allowed candidates: _dfs emits exactly the choices
    # of one allowed candidate per slot that are pairwise compatible, in
    # lexicographic slot order, and a node budget stops it where it says
    start = [0]
    for width in widths:
        start.append(start[-1] + width)
    m = start[-1]
    pairs = list(combinations(range(m), 2))
    linked = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    masks = [0] * m
    for (i, j), on in zip(pairs, linked):
        if on:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    avail = data.draw(st.none() | st.integers(0, (1 << m) - 1))
    allowed = (1 << m) - 1 if avail is None else avail
    slots = [range(a, b) for a, b in zip(start, start[1:])]
    expected = [list(c) for c in product(*slots)
                if all(allowed >> j & 1 for j in c)
                and all(masks[i] >> j & 1 for i, j in combinations(c, 2))]

    def search(max_nodes):
        emitted = []
        result = _dfs(list(range(m)), _layout(start), masks.__getitem__, emitted.append,
                      max_nodes, avail=avail)
        return result, emitted

    (complete, nodes, built), emitted = search(None)
    assert complete
    assert emitted == expected
    assert built <= min(nodes, m)
    budget = data.draw(st.integers(1, nodes + 1))
    (complete, spent, _), emitted = search(budget)
    assert (complete, spent) == (nodes <= budget, min(nodes, budget))
    assert emitted == expected[:len(emitted)]


def test_walk_with_an_empty_slot_finds_nothing():
    universe = list(product(range(3), repeat=3))
    cand = [w for w in universe if w[:2] != (1, 2)]
    emitted = []
    assert _walk(3, 3, 2, cand, emitted.append, None) == (True, 0, 0)
    assert emitted == []


@pytest.mark.parametrize("n,k,q", [(3, 2, 4), (4, 3, 3), (6, 5, 3)])
def test_collect_emits_codes_in_increasing_order(n, k, q):
    # pins that under --limit, collect keeps the least codes
    result = enumerate_mds(SearchSpec(n, k, q, require_zero=True, mode="collect"))
    keys = [tuple(sorted(code.words)) for code in result.codes]
    assert len(keys) > 1
    assert all(a < b for a, b in zip(keys, keys[1:]))


def walk_normal_forms(n, k, q, mode):
    """_walk over the sorted normal-form candidates of (n, k)_q, as
    count and exists walked them before (n, 2)_q took the square route:
    exists stops at the first code."""
    cand = sorted(_canonical_candidates(n, k, list(product(range(q), repeat=n))))
    return _walk(q, n, k, cand, lambda words: mode == "exists", None), len(cand)


@pytest.mark.parametrize("n,k,q,mode,nodes", [
    (4, 3, 4, "count", 17910),
    (3, 2, 5, "count", 904),
    (6, 2, 4, "exists", 4),
    (5, 2, 5, "exists", 229),
])
def test_walk_node_counts(n, k, q, mode, nodes):
    # counts of the earlier walk, which tested only the next 64 slots;
    # these shapes have at most 64 slots, so both rules prune alike
    (_, walked, _), _ = walk_normal_forms(n, k, q, mode)
    assert walked == nodes


@pytest.mark.parametrize("n,k,q,mode,nodes,masks,candidates", [
    (4, 3, 4, "count", 17910, 195, 232),
    (3, 2, 5, "count", 904, 57, 89),
    (6, 2, 4, "exists", 4, 4, 1786),
    (5, 2, 5, "exists", 229, 77, 1861),
])
def test_walk_builds_masks_lazily(n, k, q, mode, nodes, masks, candidates):
    # a mask is built the first time its candidate is chosen below the
    # last slot, so at most once per node and per candidate
    (_, walked, built), listed = walk_normal_forms(n, k, q, mode)
    assert listed == candidates
    assert (walked, built) == (nodes, masks)


# nodes of the square route, which labels one word per node while it grows
# each normal form; the route it replaced spent more, one node per word put
# in a transversal and one per transversal put in a cover
SQUARE_ROUTE_NODES = {(3, 5, "count"): 904, (4, 4, "count"): 95, (6, 4, "exists"): 129,
                      (5, 5, "exists"): 564, (7, 5, "exists"): 4078}


@pytest.mark.parametrize("n,q,mode,transversal_nodes,masks", [
    (3, 5, "count", 904, 57),       # the square walk itself
    (4, 4, "count", 98, 25),
    (6, 4, "exists", 140, 25),
    (5, 5, "exists", 672, 55),
    (7, 5, "exists", 4564, 57),     # past the length bound of (n, 2)_5
])
def test_square_route_node_counts(n, q, mode, transversal_nodes, masks):
    # nodes counts the square walk's nodes and the words labelled in each
    # grow, row-0 words included; masks counts the square walk's masks only
    result = enumerate_mds(SearchSpec(n, 2, q, require_zero=True, mode=mode))
    assert (result.nodes, result.masks) == (SQUARE_ROUTE_NODES[n, q, mode], masks)
    assert result.nodes <= transversal_nodes


# every admissible (n, 2)_q with q <= 5, up to one past the length bound
SQUARE_SHAPES = [(n, q) for q in range(2, 6) for n in range(3, q + 3)]


@pytest.mark.parametrize("n,q", SQUARE_SHAPES)
def test_square_route_matches_the_walk(n, q):
    universe = list(product(range(q), repeat=n))
    cand = _canonical_candidates(n, 2, universe)
    expected = []
    complete, _, _ = _walk(q, n, 2, cand, lambda words: expected.append(frozenset(words)),
                           None)
    assert complete
    forms = []
    result = _walk_shape(SearchSpec(n, 2, q, require_zero=True), forms.append)
    assert result.complete
    assert len(forms) == len(expected)
    assert {frozenset(words) for words in forms} == set(expected)
    for require_zero in (True, False):
        result = enumerate_mds(SearchSpec(n, 2, q, require_zero=require_zero))
        assert result.count == len(expected) * _class_size(n, 2, q, require_zero)
    assert exists_mds(n, 2, q) == bool(expected)
    # a limit of just over one normal form's codes stops both routes alike
    size = _class_size(n, 2, q, True)
    codes = len(expected) * size
    result = enumerate_mds(SearchSpec(n, 2, q, require_zero=True, limit=size + 1))
    assert (result.count, result.complete) == (min(codes, size + 1), codes < size + 1)


@pytest.mark.parametrize("n,q", SQUARE_SHAPES)
def test_square_route_is_complete_only_within_its_budget(n, q):
    # either route completes exactly when the budget covers its full run,
    # and otherwise stops with every node of the budget spent
    cand = _canonical_candidates(n, 2, list(product(range(q), repeat=n)))
    size = _class_size(n, 2, q, True)

    def walk(budget):
        found = []
        complete, nodes, _ = _walk(q, n, 2, cand, found.append, budget)
        return complete, nodes, len(found) * size

    def route(budget):
        result = enumerate_mds(SearchSpec(n, 2, q, require_zero=True, max_nodes=budget))
        return result.complete, result.nodes, result.count

    for run in (walk, route):
        _, needed, total = run(None)
        for budget in sorted({1, 2, needed // 2, needed - 1, needed} - {0}):
            complete, nodes, count = run(budget)
            assert complete == (budget >= needed), (run.__name__, budget)
            assert nodes == min(budget, needed)
            assert count == total if complete else count <= total


@pytest.mark.parametrize("q,squares", [(2, 1), (3, 1), (4, 4), (5, 56), (6, 9408)])
def test_reduced_latin_square_counts(q, squares):
    # the (3,2)_q normal forms are the reduced Latin squares, OEIS A000315
    forms = []
    result = _walk_shape(SearchSpec(3, 2, q, require_zero=True), forms.append)
    assert result.complete
    assert len(forms) == squares


@pytest.mark.parametrize("n,q,forms", [
    (4, 3, 1), (4, 4, 2), (4, 5, 18),
    (5, 3, 0), (5, 4, 2), (5, 5, 36),
    (6, 5, 36), (7, 5, 0),
])
def test_mols_normal_form_counts(n, q, forms):
    found = []
    assert _walk_shape(SearchSpec(n, 2, q, require_zero=True), found.append).complete
    assert len(found) == forms


def transversals_by_permutation(words, q):
    """Oracle for the transversals: the word sets (x, s(x), ..) over the
    permutations s whose words differ pairwise in every position past
    the first two."""
    found = set()
    for s in permutations(range(q)):
        chosen = [words[x * q + s[x]] for x in range(q)]
        if all(len({w[p] for w in chosen}) == q for p in range(2, len(words[0]))):
            found.add(frozenset(chosen))
    return found


def transversals(words, n, q):
    """The transversals of an (n, 2)_q code as the (n, 1)_q codes within
    its words: q words, one per first symbol, at distance n pairwise."""
    found = []
    assert _walk(q, n, 1, words, lambda chosen: found.append(frozenset(chosen)), None)[0]
    return found


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_transversals_match_the_permutation_scan(n, q):
    forms = []
    _walk_shape(SearchSpec(n, 2, q, require_zero=True), forms.append)
    assert forms or n > q + 1
    for words in forms:
        found = transversals(words, n, q)
        assert len(found) == len(set(found))
        assert set(found) == transversals_by_permutation(words, q)


def test_transversal_tallies_of_order_six():
    # OEIS A090741: a Latin square of order 6 has at most 32 transversals
    squares = []
    _walk_shape(SearchSpec(3, 2, 6, require_zero=True), squares.append)
    tally = {}
    for words in squares:
        count = len(transversals(words, 3, 6))
        tally[count] = tally.get(count, 0) + 1
    assert tally == {0: 2100, 8: 7020, 24: 108, 32: 180}
    assert sum(count * squares for count, squares in tally.items()) == 64512


@pytest.mark.parametrize("n,q", [(4, 7), (4, 8), (6, 8)])
def test_square_route_finds_codes_past_five_symbols(n, q):
    # the route is checked against _walk only up to q = 5; here its first
    # code must still be an MDS code in normal form
    found = []
    result = _walk_shape(SearchSpec(n, 2, q, require_zero=True, mode="exists"), found.append)
    assert result.count == 1 and len(found) == 1
    words = found[0]
    require_mds(Code(q, words))
    assert _canonical_candidates(n, 2, words) == words


@pytest.mark.parametrize("n,q", [(1, 5), (3, 3), (6, 5)])
def test_n_equals_k_emits_the_universe_without_a_walk(n, q):
    universe = list(product(range(q), repeat=n))
    for mode in ("count", "exists", "collect"):
        forms = []
        result = _walk_shape(SearchSpec(n, n, q, mode=mode, max_nodes=1), forms.append)
        assert forms == [universe]
        assert (result.count, result.nodes, result.masks) == (1, 0, 0)
        assert result.complete == (mode != "exists")
    if q ** n <= 27:
        walked = []
        _walk(q, n, n, universe, walked.append, None)
        assert walked == forms


def test_mask_builds_stay_within_nodes(monkeypatch):
    built = []
    build = mdskit.search._compatibility

    def counted(w, full, masks, k):
        built.append(w)
        return build(w, full, masks, k)

    monkeypatch.setattr(mdskit.search, "_compatibility", counted)
    # k = 3, so every mask built is _walk's own
    result = enumerate_mds(SearchSpec(7, 3, 4, require_zero=True, mode="exists"))
    assert result.count == 0 and result.complete
    assert len(built) == len(set(built)) == result.masks
    assert 0 < len(built) <= result.nodes


def test_square_route_builds_one_bit_sliced_view(monkeypatch):
    # the walk over the 89 length-3 candidates takes one view; the square
    # route ORs mask columns it builds from each square's words itself.
    # search imports symbol_masks by name, so the name is patched there
    calls = []
    build = mdskit.search.symbol_masks

    def counted(words, n, q):
        calls.append((len(words), n))
        return build(words, n, q)

    monkeypatch.setattr(mdskit.search, "symbol_masks", counted)
    result = enumerate_mds(SearchSpec(4, 2, 5, require_zero=True))
    assert result.count == 248832 and result.complete
    assert calls == [(89, 3)]


def test_walk_memory_follows_the_masks_built(monkeypatch):
    # (6,6)_4 has 4096 candidates, one per slot, all compatible; stopped
    # after 64 masks, the walk holds about three 4096-bit ints per mask,
    # far below one per slot
    n, k, q = 6, 6, 4
    cand = _canonical_candidates(n, k, list(product(range(q), repeat=n)))
    monkeypatch.setattr(mdskit.search, "_MASK_BIT_LIMIT", 64 * len(cand))
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge, match="^masks x bits = 65 x 4096 "):
            _walk(q, n, k, cand, lambda words: None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_int_per_slot = q ** k * len(cand) // 8
    assert peak < one_int_per_slot // 2


def test_mask_bit_limit_refuses_the_walk(monkeypatch):
    # exists (7,3)_4 builds 4 masks of 11992 bits; allow 3 of them
    monkeypatch.setattr(mdskit.search, "_MASK_BIT_LIMIT", 3 * 11992)
    with pytest.raises(SearchSpaceTooLarge,
                       match="^masks x bits = 4 x 11992 exceeds the mask bit limit 35976$"):
        exists_mds(7, 3, 4)


def test_mask_bit_limit_gives_a_skip_line(monkeypatch):
    monkeypatch.setattr(mdskit.search, "_MASK_BIT_LIMIT", 10)
    lines = list(check_theorems(2, 5))
    # the (4,2)_2 bound stops in the square walk, the (5,3)_2 bound in _walk
    assert lines[:2] == [
        ("skip", "no (n, 2)_2 MDS code with n > 3: "
                 "masks x bits = 3 x 5 exceeds the mask bit limit 10"),
        ("skip", "no (n, 3)_2 MDS code with n > 4: "
                 "masks x bits = 1 x 17 exceeds the mask bit limit 10")]
    assert ("skip", "(n=4, k=3)_2: masks x bits = 1 x 12 exceeds the mask bit limit 10") \
        in lines
    # n = k shapes take no walk, so no mask bound stops them
    assert ("pass", "spectrum (n=4, k=4)_2 codes=1") in lines


@pytest.mark.parametrize("q,latin", [(2, 2), (3, 12), (4, 576), (5, 161280)])
def test_latin_counts(q, latin):
    # (3,2)_q codes are the Latin squares of order q, L(q) in OEIS A002860;
    # translating the symbols of one position maps those containing zero
    # onto the others, so 1 in q contains zero
    assert enumerate_mds(SearchSpec(3, 2, q)).count == latin
    assert enumerate_mds(SearchSpec(3, 2, q, require_zero=True)).count == latin // q


def test_latin_count_order_6():
    result = enumerate_mds(SearchSpec(3, 2, 6, require_zero=True))
    assert result.complete
    assert result.count == 812851200 // 6


def test_latin_cube_count():
    # (4,3)_4 codes are the Latin cubes of order 4
    assert enumerate_mds(SearchSpec(4, 3, 4)).count == 55296
    assert enumerate_mds(SearchSpec(4, 3, 4, require_zero=True)).count == 55296 // 4


def test_count_limit_caps_the_weighted_count():
    # every normal form of (3,2)_5 stands for 4!^2 * 5 = 2880 codes
    result = enumerate_mds(SearchSpec(3, 2, 5, limit=10))
    assert result.count == 10
    assert not result.complete
    result = enumerate_mds(SearchSpec(3, 2, 4, limit=577))
    assert (result.count, result.complete) == (576, True)


def test_exists_mode_counts_one_code():
    result = enumerate_mds(SearchSpec(4, 2, 3, mode="exists"))
    assert (result.count, result.complete) == (1, False)
    result = enumerate_mds(SearchSpec(4, 2, 2, mode="exists"))
    assert (result.count, result.complete) == (0, True)


@pytest.mark.parametrize("n,k,q,with_zero", [
    (4, 1, 3, 2 ** 3),          # k = 1: positions 1..n-1
    (1, 1, 5, 1),               # k = 1, n = k
    (3, 3, 4, 1),               # n = k: nothing to normalize
    (3, 2, 5, 24 ** 2),         # k >= 2: position 0 and positions k..n-1
    (6, 3, 4, 6 ** 4),
    (5, 4, 2, 1),               # q = 2: the only relabeling fixing 0 is 1
])
def test_class_size(n, k, q, with_zero):
    assert _class_size(n, k, q, True) == with_zero
    assert _class_size(n, k, q, False) == with_zero * q ** (n - k)


def test_full_count_without_zero():
    # length-3 binary: the even-weight words and the odd-weight words
    result = enumerate_mds(SearchSpec(3, 2, 2, mode="count"))
    assert result.count == 2


def test_collect_returns_mds_codes():
    result = enumerate_mds(SearchSpec(3, 2, 3, require_zero=True, mode="collect"))
    assert len(result.codes) == 4
    for code in result.codes:
        assert isinstance(code, Code)
        assert (code.n, code.k, code.q) == (3, 2, 3)
        assert code.contains_zero()
        assert is_mds(code).is_mds
    assert len(set(result.codes)) == 4


def test_limit_stops_early():
    result = enumerate_mds(SearchSpec(3, 2, 3, require_zero=True,
                                      mode="collect", limit=2))
    assert len(result.codes) == 2
    assert not result.complete


def test_exists():
    assert exists_mds(3, 2, 3)
    assert exists_mds(4, 2, 3)
    assert exists_mds(4, 2, 5)
    assert exists_mds(5, 2, 4)
    assert not exists_mds(4, 2, 2)
    assert not exists_mds(5, 3, 2)


def test_no_7_4_5_code_within_bushs_bound():
    # Bush's bound q+k-2 allows n = 7 for (k, q) = (4, 5), yet the walk
    # settles that no (7, 4)_5 MDS code exists
    result = enumerate_mds(SearchSpec(7, 4, 5, mode="exists"))
    assert length_bound(4, 5) == 7
    assert (result.count, result.complete, result.nodes) == (0, True, 37355)


def test_exists_unresolved_budget_raises():
    with pytest.raises(SearchSpaceTooLarge):
        exists_mds(4, 2, 3, max_nodes=1)


def test_budget_stops_walk_honestly():
    result = enumerate_mds(SearchSpec(4, 2, 3, require_zero=True,
                                      mode="count", max_nodes=2))
    assert not result.complete


def test_guards():
    # the word, length and universe limits refuse a spec when it is built,
    # and a built spec is frozen, so no field can change once checked
    with pytest.raises(SearchSpaceTooLarge, match="word limit"):
        SearchSpec(12, 12, 3)
    with pytest.raises(SearchSpaceTooLarge, match="^n = 13 exceeds the length limit 12$"):
        SearchSpec(13, 2, 2)
    with pytest.raises(SearchSpaceTooLarge, match="universe limit"):
        SearchSpec(12, 2, 5)
    spec = SearchSpec(12, 2, 2)
    with pytest.raises(AttributeError):
        spec.n = 13
    assert spec.n == 12
    with pytest.raises(SearchSpaceTooLarge,
                       match="^masks x bits = 13654 x 19661 exceeds the mask bit limit "):
        enumerate_mds(SearchSpec(9, 8, 3))
    # an n = k shape has one code, every word, found without a walk
    result = enumerate_mds(SearchSpec(9, 9, 3))
    assert (result.count, result.complete, result.nodes, result.masks) == (1, True, 0, 0)


def test_value_classes_keep_their_record_contract():
    # the eight value classes are named tuples: each keeps its repr,
    # compares and hashes by its fields, refuses a field assignment,
    # and runs its checks when it is built
    spec = SearchSpec(3, 2, 3, mode="collect")
    spec_text = ("SearchSpec(n=3, k=2, q=3, require_zero=False, mode='collect', "
                 "limit=None, max_nodes=None)")
    cases = [  # (value, its repr, a value of its class differing in one field)
        (MdsReport(True, 3, 3), "MdsReport(is_mds=True, d=3, singleton_bound=3)",
         MdsReport(True, 3, 4)),
        (spec, spec_text, SearchSpec(3, 2, 3, mode="collect", max_nodes=5)),
        (SearchResult(spec, 0),
         f"SearchResult(spec={spec_text}, count=0, codes=(), complete=True, nodes=0, masks=0)",
         SearchResult(spec, 0, masks=1)),
        (TheoremReport("claim", True),
         "TheoremReport(claim='claim', passed=True, out_of_regime=False, detail='', skipped=False)",
         TheoremReport("claim", True, skipped=True)),
        (SP(0, [1, 0]), "SP(position=0, perm=(1, 0))", SP(0, (0, 1))),
        (PP(0, 1), "PP(i=0, j=1)", PP(0, 2)),
        (ResidualSpec([0], [1]), "ResidualSpec(positions=(0,), values=(1,))",
         ResidualSpec((0,), (0,))),
        (BinaryClass(BinaryKind.UNIVERSE, ()),
         "BinaryClass(kind=<BinaryKind.UNIVERSE: 'universe'>, moves=())",
         BinaryClass(BinaryKind.UNIVERSE, (PP(0, 1),))),
    ]
    for value, text, other in cases:
        assert repr(value) == text
        twin = type(value)(*value)
        assert twin == value and hash(twin) == hash(value)
        assert other != value and type(other) is type(value)
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) == getattr(twin, field) is not None
    assert SP(position=0, perm=iter([1, 0])).perm == (1, 0)
    assert ResidualSpec(range(2), [0, 1]) == ResidualSpec((0, 1), (0, 1))
    with pytest.raises(InvalidParameters, match="bad search shape"):
        SearchSpec(3, 2, 1)
    with pytest.raises(SearchSpaceTooLarge, match="length limit"):
        SearchSpec(n=13, k=2, q=2)
    with pytest.raises(BadPositions, match="^positions and values differ in length$"):
        ResidualSpec([0, 1], [0])
    with pytest.raises(BadPositions, match="^repeated position$"):
        ResidualSpec([1, 1], [0, 0])
    # a copy made by _replace runs the same checks
    with pytest.raises(SearchSpaceTooLarge, match="length limit"):
        spec._replace(n=13)
    with pytest.raises(BadPositions, match="^repeated position$"):
        ResidualSpec([0, 1], [0, 0])._replace(positions=[1, 1])
    assert SP(0, (1, 0))._replace(perm=[0, 1]).perm == (0, 1)
    # collect mode returns its codes with the result; count mode keeps none
    result = enumerate_mds(spec)
    assert result.spec == spec and result.count == len(result.codes) == 12
    assert len(set(result.codes)) == 12
    assert all(len(code) == 9 and is_mds(code).is_mds for code in result.codes)
    assert enumerate_mds(SearchSpec(3, 2, 3)).codes == ()


def test_word_limit_refuses_no_settleable_shape():
    # every shape the word limit refuses and the universe limit admits
    refused = []
    for q in range(2, _UNIVERSE_LIMIT + 1):
        n = 1
        while q ** n <= _UNIVERSE_LIMIT:
            refused += [(n, k, q) for k in range(1, n + 1) if q ** k > MAX_WORDS]
            n += 1
    # each is n = k, whose one code is all q^k > MAX_WORDS words, a Code
    # no search or construction builds, or (18,17)_2, whose code a walk
    # finds only after q^k - 1 masks of at least q^k bits
    assert refused
    for n, k, q in refused:
        assert n == k or (n, k, q) == (18, 17, 2)
    assert (2 ** 17 - 1) * 2 ** 17 > _MASK_BIT_LIMIT


def test_verify_bounds_binary_and_ternary():
    reports = verify_bounds(2, 4)
    assert len(reports) == 3  # k = 2, 3, 4
    assert all(r.passed for r in reports)
    reports = verify_bounds(3, 3)
    assert all(r.passed for r in reports)
    assert any("n > 4" in r.claim for r in reports)


# at (k, q) = (3, 4) the search past the bound walks 11992 normal-form
# candidates, which only a walk bounded by the masks it builds reaches;
# at (3, 5) it settles Bush's bound q+k-2 for odd q
@pytest.mark.parametrize("k,q", [(k, q) for k in (2, 3) for q in (2, 3, 4)] + [(3, 5)])
def test_length_bound_is_tight(k, q):
    bound = length_bound(k, q)
    assert exists_mds(bound, k, q)
    assert not exists_mds(bound + 1, k, q)


def test_check_theorems_skip_lines(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(mdskit.search, "MAX_WORDS", 8)
        lines = list(check_theorems(2, 4))
    assert ("skip", "(n=4, k=4)_2: q^k = 16 exceeds the word limit 8") in lines
    lines = list(check_theorems(3, 3, max_nodes=1))
    assert ("skip", "(n=3, k=2)_3: unresolved within node budget") in lines
    # past the length bound the walk completes without finding a code
    monkeypatch.setattr(mdskit.search, "length_bound",
                        lambda k, q: inf if k < 2 else k + 2)
    lines = list(check_theorems(2, 4))
    assert ("skip", "(n=4, k=2)_2: no codes exist") in lines


def test_check_theorems_checks_only_the_bounds_whose_witness_fits():
    # Bush's bound, and k+1 for q <= k, make the witness length
    # length_bound(k, q) + 1 non-monotone in k
    assert [length_bound(k, 5) + 1 for k in range(2, 7)] == [7, 7, 8, 7, 8]
    # a small budget: which bounds are checked, not how they settle
    lines = check_theorems(5, 7, max_nodes=20000)
    bounds = [next(lines)[1] for _ in range(3)]
    assert [claim[:len("no (n, 2)")] for claim in bounds] == [
        "no (n, 2)", "no (n, 3)", "no (n, 5)"]
    assert next(lines)[1].startswith("spectrum (n=1, k=1)_5 ")


@pytest.mark.parametrize("q,kwargs,name", [
    (1, {}, "q"),
    (2, {"limit_per_shape": 0}, "limit_per_shape"),
    (2, {"max_nodes": 0}, "max_nodes"),
    (2, {"max_n": 0}, "max_n"),
])
def test_check_theorems_refuses_bad_arguments_when_called(q, kwargs, name):
    # raised by the call itself, not by the first next() on its lines
    kwargs = {"max_n": 4, **kwargs}
    with pytest.raises(InvalidParameters, match=f"^{name} "):
        check_theorems(q, **kwargs)


@pytest.mark.parametrize("call", [
    lambda: enumerate_mds(SearchSpec(3.0, 2, 3)),
    lambda: SearchSpec(3, 2.0, 3),
    lambda: SearchSpec(3, 2, 3.0),
    lambda: SearchSpec(4, 3, 2, limit=1.5),
    lambda: SearchSpec(4, 3, 2, max_nodes=2.0),
    lambda: check_theorems(2.0, 3),
    lambda: check_theorems(2, 3.0),
    lambda: check_theorems(2, 3, limit_per_shape=1.5),
    lambda: check_theorems(2, 3, max_nodes=2.0),
    lambda: verify_bounds(2, 3.0),
    lambda: predicted_spectrum(3.0, 2, 3),
    lambda: weight_distribution_formula(3.0, 2, 3),
    lambda: weight_distribution_formula(3, 2, 3.0),
    lambda: partition_weight_enumerator_formula(
        4, 2.0, 3, PartitionSpec(4, [[0, 1], [2, 3]]), (1, 1)),
    lambda: SearchSpec(True, 1, 2),
    lambda: SearchSpec(3, 2, 3, limit=True),
    lambda: check_theorems(2, True),
    lambda: predicted_spectrum(True, True, 2),
    lambda: length_bound(2.0, 3),
])
def test_search_and_closed_forms_refuse_non_integer_parameters(call):
    # a float passes every range check: unchecked, SearchSpec(3.0, 2, 3)
    # would count 12.0 codes, and limit=1.5 would report a count of 1.5;
    # a bool is an int subclass, and limit=True would report a count of True
    with pytest.raises(InvalidParameters, match="is not an integer"):
        call()


def test_verify_spectrum_theorems():
    code = doubly_extended_rs(Field(4))
    reports = verify_spectrum_theorems(code)
    assert all(r.passed for r in reports)
    # n = q+k-1 with k, q > 2 carries the full-weight claim
    assert any("full-weight" in r.claim for r in reports)

    code = extended_rs_code(Field(3), 2)
    reports = verify_spectrum_theorems(code)
    assert all(r.passed for r in reports)
    assert not any("full-weight" in r.claim for r in reports)


def test_verify_spectrum_rejects():
    from mdskit import SP, apply_move
    code = extended_rs_code(Field(3), 2)
    with pytest.raises(ZeroWordAbsent):
        verify_spectrum_theorems(apply_move(code, SP(0, (1, 2, 0))))
    with pytest.raises(ZeroWordAbsent):
        verify_distribution(apply_move(code, SP(0, (1, 2, 0))))
    not_mds = Code(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    with pytest.raises(NotMds):
        verify_spectrum_theorems(not_mds)


def test_verify_distribution_in_and_out_of_regime():
    report = verify_distribution(doubly_extended_rs(Field(4)))
    assert report.passed and not report.out_of_regime

    report = verify_distribution(sum_zero_code(4, Field(2)))
    assert report.out_of_regime
    assert report.passed  # agrees empirically for the binary parity check


def _shape_tags(lines):
    """{(n, k): N} from the codes=N tags of a sweep's spectrum lines."""
    tags = {}
    for _, claim in lines:
        match = re.match(r"spectrum \(n=(\d+), k=(\d+)\)_\d+ codes=(\d+)", claim)
        if match:
            n, k, codes = map(int, match.groups())
            tags[n, k] = codes
    return tags


@pytest.mark.parametrize("q,max_n,scans", [(2, 6, 15), (3, 6, 27), (4, 4, 28)])
def test_check_theorems_scans_each_normal_form_once(q, max_n, scans, min_distance_calls):
    lines = list(check_theorems(q, max_n))
    assert len(min_distance_calls) == scans
    assert len({id(code) for code in min_distance_calls}) == scans
    forms = {}
    for code in min_distance_calls:
        universe = list(product(range(q), repeat=code.n))
        assert code.words <= set(_canonical_candidates(code.n, code.k, universe))
        forms.setdefault((code.n, code.k), set()).add(code.words)
    # one scan per distinct normal form, weighed by its class size
    assert sum(len(shape_forms) for shape_forms in forms.values()) == scans
    tags = _shape_tags(lines)
    assert set(tags) == set(forms)
    for (n, k), shape_forms in forms.items():
        weighed = len(shape_forms) * _class_size(n, k, q, True)
        assert tags[n, k] == min(weighed, SWEEP_LIMIT_PER_SHAPE)


def test_check_theorems_counts_weights_once_per_normal_form(monkeypatch):
    # the spectrum and distribution checks of a normal form share one count
    calls = []
    count = mdskit.spectra._distances_from

    def counted(code, center):
        calls.append(code)
        return count(code, center)

    monkeypatch.setattr(mdskit.spectra, "_distances_from", counted)
    q, max_n = 3, 5
    list(check_theorems(q, max_n))
    forms = []
    for k in range(1, max_n + 1):
        for n in range(k, min(max_n, length_bound(k, q)) + 1):
            _walk_shape(SearchSpec(n, k, q, require_zero=True, limit=SWEEP_LIMIT_PER_SHAPE,
                                   max_nodes=SWEEP_MAX_NODES), forms.append)
    assert len(forms) > 1
    assert len(calls) == len({id(code) for code in calls}) == len(forms)


def check_outcomes(code):
    """Whether each check of the sweep passed on one code."""
    spectrum = tuple(rep.passed for rep in verify_spectrum_theorems(code))
    distribution = verify_distribution(code)
    classified = True
    if code.q == 2:
        try:
            classify_binary(code)
        except TheoremViolation:
            classified = False
    return spectrum, distribution.passed, distribution.out_of_regime, classified


def collect_sweep(q, max_n):
    """Oracle for the shape lines of check_theorems: collect every code
    containing zero, up to the sweep's limits, and check each one.
    Yields (n, k, lines, codes) for each shape whose collect walk
    finished."""
    for k in range(1, max_n + 1):
        for n in range(k, min(max_n, length_bound(k, q)) + 1):
            # a count of the same shape stops where collect would, and
            # skips building the codes of a sample that is not compared
            if not enumerate_mds(SearchSpec(n, k, q, require_zero=True,
                                            limit=SWEEP_LIMIT_PER_SHAPE)).complete:
                continue
            result = enumerate_mds(SearchSpec(
                n, k, q, require_zero=True, mode="collect",
                limit=SWEEP_LIMIT_PER_SHAPE, max_nodes=SWEEP_MAX_NODES))
            if not result.complete:
                continue
            shape = f"(n={n}, k={k})_{q}"
            if not result.codes:
                yield n, k, [("skip", f"{shape}: no codes exist")], ()
                continue
            tag = f"codes={len(result.codes)}"
            spectrum_bad = dist_bad = classify_bad = 0
            dist_empirical = False
            for code in result.codes:
                spectrum, dist_passed, dist_empirical, classified = check_outcomes(code)
                spectrum_bad += not all(spectrum)
                dist_bad += not dist_passed
                classify_bad += not classified
            lines = [("fail" if spectrum_bad else "pass", f"spectrum {shape} {tag}")]
            if dist_empirical:
                lines.append(("empirical-disagree" if dist_bad else "empirical",
                              f"distribution {shape} {tag}"))
            else:
                lines.append(("fail" if dist_bad else "pass", f"distribution {shape} {tag}"))
            if q == 2:
                lines.append(("fail" if classify_bad else "pass",
                              f"binary-classification {shape} {tag}"))
            yield n, k, lines, result.codes


def normal_form(code):
    """The code of _canonical_candidates' normal form in code's
    relabeling class (code contains zero): relabel each position p >= k
    so that the word with information prefix (0,..,0, y) reads y there,
    then, for 2 <= k < n, position 0 so that the word with prefix
    (x, 0,..,0) carries x at position k."""
    n, k, q = code.n, code.k, code.q
    by_prefix = {w[:k]: w for w in code.words}
    relabel = [list(range(q)) for _ in range(n)]
    for p in range(k, n):
        for y in range(q):
            relabel[p][by_prefix[(0,) * (k - 1) + (y,)][p]] = y
    if 2 <= k < n:
        for x in range(q):
            relabel[0][x] = relabel[k][by_prefix[(x,) + (0,) * (k - 1)][k]]
    return Code(q, [tuple(relabel[p][s] for p, s in enumerate(w)) for w in code.words])


@pytest.mark.parametrize("q,shapes", [(2, 12), (3, 13), (4, 10), (5, 6)])
def test_check_theorems_agrees_with_the_collect_sweep(q, shapes):
    max_n = 5
    lines = list(check_theorems(q, max_n))
    compared = 0
    for n, k, oracle_lines, codes in collect_sweep(q, max_n):
        shape = f"(n={n}, k={k})_{q}"
        assert [line for line in lines
                if line[1].startswith(shape) or f" {shape} " in line[1]] == oracle_lines
        forms = []
        _walk_shape(SearchSpec(n, k, q, require_zero=True), forms.append)
        outcomes = {frozenset(words): check_outcomes(Code(q, words)) for words in forms}
        # every collected code sits in the class of a walked normal form
        # and passes exactly the checks that normal form passed
        reached = set()
        for code in codes:
            form = normal_form(code).words
            reached.add(form)
            assert check_outcomes(code) == outcomes[form]
        assert reached == set(outcomes)
        assert len(codes) == len(forms) * _class_size(n, k, q, True)
        compared += 1
    assert compared == shapes
