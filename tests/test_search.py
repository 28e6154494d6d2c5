"""Exhaustive walks: frozen counts, guards, budgets, and theorem checks."""

from itertools import product
from math import factorial, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdskit
from mdskit import (
    Code,
    Field,
    InvalidParameters,
    NotMds,
    SearchSpaceTooLarge,
    SearchSpec,
    ZeroWordAbsent,
    check_theorems,
    doubly_extended_rs,
    enumerate_mds,
    exists_mds,
    extended_rs_code,
    hamming_distance,
    is_mds,
    length_bound,
    sum_zero_code,
    verify_bounds,
    verify_distribution,
    verify_spectrum_theorems,
)
from mdskit.codes import symbol_masks
from mdskit.search import (
    _canonical_candidates,
    _class_size,
    _compatibility,
    _fields_hit,
    _slot_fields,
    _walk,
    _zero_candidates,
)

# The full walks of these shapes take seconds; their counts are pinned
# against the literature in test_latin_counts instead.
SLOW_FULL_WALKS = {(3, 2, 5), (4, 3, 4)}


def full_walk_count(n, k, q, require_zero):
    """Oracle for count mode: walk every code of the shape, one by one."""
    universe = list(product(range(q), repeat=n))
    cand = _zero_candidates(q, n, k, universe) if require_zero else universe
    found = []
    complete, _ = _walk(q, n, k, cand, lambda words: found.append(1), None)
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


@pytest.mark.parametrize("n,k,q,select", [
    (6, 2, 4, _canonical_candidates),   # the exists_mds(6,2,4) walk: 1786 words
    (4, 3, 4, _zero_candidates),        # the require_zero count of (4,3)_4
])
def test_compatibility_masks_match_pairwise(n, k, q, select):
    cand = sorted(select(q, n, k, list(product(range(q), repeat=n))))
    compat = _compatibility(cand, symbol_masks(cand, n, q), k)
    assert compat == pairwise_compatibility(cand, n - k + 1)


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
        for cand in (universe, _zero_candidates(q, n, k, universe)):
            emitted = []
            complete, _ = _walk(q, n, k, cand,
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


def test_walk_with_an_empty_slot_finds_nothing():
    universe = list(product(range(3), repeat=3))
    cand = [w for w in universe if w[:2] != (1, 2)]
    emitted = []
    assert _walk(3, 3, 2, cand, emitted.append, None) == (True, 0)
    assert emitted == []


@pytest.mark.parametrize("n,k,q", [(3, 2, 4), (4, 3, 3), (6, 5, 3)])
def test_collect_emits_codes_in_increasing_order(n, k, q):
    # pins which codes a budgeted sweep line takes as its sample
    result = enumerate_mds(SearchSpec(n, k, q, require_zero=True, mode="collect"))
    keys = [tuple(sorted(code.words)) for code in result.codes]
    assert len(keys) > 1
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("n,k,q,mode,nodes", [
    (4, 3, 4, "count", 17910),
    (3, 2, 5, "count", 904),
    (6, 2, 4, "exists", 4),
    (5, 2, 5, "exists", 229),
])
def test_walk_node_counts(n, k, q, mode, nodes):
    # counts of the earlier walk, which tested only the next 64 slots;
    # these shapes have at most 64 slots, so both rules prune alike
    result = enumerate_mds(SearchSpec(n, k, q, require_zero=True, mode=mode))
    assert result.nodes == nodes


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


def test_exists_unresolved_budget_raises():
    with pytest.raises(SearchSpaceTooLarge):
        exists_mds(4, 2, 3, max_nodes=1)


def test_budget_stops_walk_honestly():
    result = enumerate_mds(SearchSpec(4, 2, 3, require_zero=True,
                                      mode="count", max_nodes=2))
    assert not result.complete


def test_guards():
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_mds(SearchSpec(12, 12, 3))          # q^k too big
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_mds(SearchSpec(13, 2, 2))           # n too long
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_mds(SearchSpec(12, 2, 5))           # q^n universe too big
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_mds(SearchSpec(9, 9, 3))            # candidate set too big
    # guards are configuration, not hard limits
    result = enumerate_mds(SearchSpec(3, 2, 2, max_words=4, max_length=3))
    assert result.count == 2
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_mds(SearchSpec(3, 2, 2, max_words=3))


def test_verify_bounds_binary_and_ternary():
    reports = verify_bounds(2, 4)
    assert len(reports) == 3  # k = 2, 3, 4
    assert all(r.passed for r in reports)
    reports = verify_bounds(3, 3)
    assert all(r.passed for r in reports)
    assert any("n > 4" in r.claim for r in reports)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_length_bound_is_tight(k, q):
    bound = length_bound(k, q)
    assert exists_mds(bound, k, q)
    assert not exists_mds(bound + 1, k, q)


def test_check_theorems_skip_lines(monkeypatch):
    lines = list(check_theorems(2, 4, max_words=8))
    assert ("skip", "(n=4, k=4)_2: q^k = 16 exceeds the word limit 8") in lines
    lines = list(check_theorems(3, 3, max_nodes=1))
    assert ("skip", "(n=3, k=2)_3: unresolved within node budget") in lines
    # past the length bound the walk completes without finding a code
    monkeypatch.setattr(mdskit.search, "length_bound",
                        lambda k, q: inf if k < 2 else k + 2)
    lines = list(check_theorems(2, 4))
    assert ("skip", "(n=4, k=2)_2: no codes exist") in lines


@pytest.mark.parametrize("q,kwargs,name", [
    (1, {}, "q"),
    (2, {"limit_per_shape": 0}, "limit_per_shape"),
    (2, {"max_nodes": 0}, "max_nodes"),
    (2, {"max_n": 0}, "max_n"),
    (2, {"max_words": 0}, "max_words"),
    (2, {"max_length": 0}, "max_length"),
])
def test_check_theorems_refuses_bad_arguments_when_called(q, kwargs, name):
    # raised by the call itself, not by the first next() on its lines
    kwargs = {"max_n": 4, **kwargs}
    with pytest.raises(InvalidParameters, match=f"^{name} "):
        check_theorems(q, **kwargs)


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
    not_mds = Code(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    with pytest.raises(NotMds):
        verify_spectrum_theorems(not_mds)


def test_verify_distribution_in_and_out_of_regime():
    report = verify_distribution(doubly_extended_rs(Field(4)))
    assert report.passed and not report.out_of_regime

    report = verify_distribution(sum_zero_code(4, Field(2)))
    assert report.out_of_regime
    assert report.passed  # agrees empirically for the binary parity check


def test_check_theorems_scans_each_swept_code_once(min_distance_calls):
    lines = list(check_theorems(3, 4))
    # one spectrum line per swept shape, tagged codes=N
    swept = sum(int(claim.split("codes=")[1].split()[0])
                for _, claim in lines if claim.startswith("spectrum "))
    assert swept > 0
    assert len(min_distance_calls) == swept
    assert len({id(code) for code in min_distance_calls}) == swept
