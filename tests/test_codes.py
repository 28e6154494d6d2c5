"""Code container, distance scans, and the file format."""

import ast
import math
import operator
import random
import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mdskit
from mdskit import (
    BadPositions,
    Code,
    CodeFileError,
    Field,
    InvalidCode,
    LengthMismatch,
    NotMds,
    PP,
    SP,
    SearchSpaceTooLarge,
    TheoremViolation,
    TooFewWords,
    apply_moves,
    extended_rs_code,
    format_code,
    hamming_distance,
    information_set_check,
    is_mds,
    length_bound,
    min_distance,
    parse_code,
    read_code,
    repetition_code,
    require_mds,
    rs_code,
    sum_zero_code,
    universe_code,
    weight,
    write_code,
)
from mdskit.codes import (
    _coset_distance,
    _scan_distance,
    columns_of,
    rows_of,
    span_columns,
    symbol_masks,
)
from mdskit.errors import MAX_SYMBOLS
from mdskit.galois import SUPPORTED_ORDERS, symbol_group

EVEN4 = [(a, b, c, (a + b + c) % 2) for a in range(2) for b in range(2) for c in range(2)]


def pairwise_min_distance(code):
    """Oracle for min_distance: the full pairwise scan, stopping at d = 1."""
    words = code.sorted_words()
    best = code.n
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            dist = hamming_distance(a, b)
            if dist < best:
                best = dist
                if best == 1:
                    return 1
    return best


def test_hamming_distance_and_weight():
    assert hamming_distance((0, 1, 2), (0, 2, 2)) == 1
    assert hamming_distance((0, 0), (0, 0)) == 0
    assert weight((0, 3, 0, 1)) == 2
    with pytest.raises(LengthMismatch):
        hamming_distance((0, 1), (0, 1, 2))


def test_code_basic_properties():
    code = Code(2, EVEN4)
    assert (code.q, code.n, code.k) == (2, 4, 3)
    assert len(code) == 8
    assert code.contains_zero()
    assert (0, 1, 1, 0) in code
    assert (1, 0, 0, 0) not in code
    assert (0.0, 1.0, 1.0, 0.0) not in code  # a word of floats is no codeword
    assert code.sorted_words()[0] == bytes(4)
    assert code == Code(2, list(reversed(EVEN4)))
    assert repr(code) == "Code((n=4, k=3)_2, 8 words)"


def test_code_rejects_bad_input():
    with pytest.raises(InvalidCode):
        Code(2, [])  # empty
    with pytest.raises(InvalidCode):
        Code(2, [(0, 1), (0, 1, 1)])  # ragged
    with pytest.raises(InvalidCode):
        Code(2, [(0, 2)])  # symbol out of range
    with pytest.raises(InvalidCode, match="outside 0..1"):
        Code(2, [(True,), (False,)])  # a bool is no symbol
    with pytest.raises(InvalidCode):
        Code(2, [(0, 0), (0, 1), (1, 0)])  # 3 words is not a power of 2
    with pytest.raises(InvalidCode):
        Code(1, [(0,)])  # alphabet too small


def test_code_rejects_empty_words():
    # the file format needs n >= 1, so such a code could not be read back
    with pytest.raises(InvalidCode, match="length at least 1"):
        Code(2, [()])


def test_min_distance_and_is_mds():
    code = Code(2, EVEN4)
    assert min_distance(code) == 2
    report = is_mds(code)
    assert report.is_mds and report.d == 2 and report.singleton_bound == 2

    bad = Code(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    report = is_mds(bad)
    assert not report.is_mds and report.d == 1 and report.singleton_bound == 2

    single = Code(2, [(0, 1)])
    with pytest.raises(TooFewWords):
        min_distance(single)


@st.composite
def small_codes(draw):
    """Codes with q <= 5, n <= 6 and q^k <= 125 words: random word sets
    (mostly d <= 2, often d = 1), the images of random generator
    matrices mod q, which reach every distance up to the Singleton
    bound, and MDS codes relabeled per position, as built or with one
    word swapped for a non-codeword.  min_distance certifies the
    relabeled MDS codes of shapes with C(n, k) <= n*k by their
    k-subsets, and the swapped ones fall through to its scan."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "linear", "mds", "mds-swapped"]))
    if kind.startswith("mds"):
        return draw(relabeled_mds_codes(q, n, swap=kind == "mds-swapped"))
    # k = n only for n = 1: a full universe is a d = 1 code, already common
    k = draw(st.integers(1, max(1, n - 1)).filter(lambda k: q ** k <= 125))
    if kind == "random":
        picks = draw(st.sets(st.integers(0, q ** n - 1), min_size=q ** k, max_size=q ** k))
        words = [tuple(x // q ** p % q for p in range(n)) for x in picks]
    else:
        rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                             min_size=k, max_size=k))
        words = set()
        for x in range(q ** k):
            coef = [x // q ** i % q for i in range(k)]
            words.add(tuple(sum(c * r[p] for c, r in zip(coef, rows)) % q for p in range(n)))
        if len(words) < q ** k:
            # a rank-deficient matrix: any full set of q^k distinct words instead
            words = list(product(range(q), repeat=n))[:q ** k]
    return Code(q, words)


@st.composite
def relabeled_mds_codes(draw, q, n, swap):
    """An (n, k)_q MDS code from a construction over GF(q), each
    position relabeled by a drawn permutation; with swap, one word is
    replaced by a word outside the code when k < n."""
    field = Field(q)
    ks = [k for k in range(1, max(1, n - 1) + 1)
          if q ** k <= 125 and (k == 1 or k == n - 1 or n <= q + 1)]
    k = draw(st.sampled_from(ks))
    if k == 1:
        code = repetition_code(n, q)
    elif k == n - 1:
        code = sum_zero_code(k, field)
    elif n <= q:
        code = rs_code(field, k, range(n))
    else:
        code = extended_rs_code(field, k)
    perms = [draw(st.permutations(range(q))) for _ in range(n)]
    words = {tuple(perm[s] for perm, s in zip(perms, w)) for w in code.words}
    if swap and k < n:
        words.remove(draw(st.sampled_from(sorted(words))))
        outside = draw(st.integers(0, q ** n - 1).map(
            lambda x: tuple(x // q ** p % q for p in range(n))).filter(
            lambda w: w not in words))
        words.add(outside)
    return Code(q, words)


@settings(deadline=None, max_examples=150)
@given(small_codes())
def test_min_distance_matches_pairwise_oracle(code):
    assert min_distance(code) == pairwise_min_distance(code)


def test_min_distance_oracle_cases():
    # d = 1 at the last pair, d = n for a repetition-like code, one position
    assert min_distance(Code(2, [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 0)])) == 1
    assert min_distance(Code(3, [(0,) * 5, (1,) * 5, (2,) * 5])) == 5
    assert min_distance(Code(5, [(s,) for s in range(5)])) == 1
    assert min_distance(Code(2, EVEN4)) == pairwise_min_distance(Code(2, EVEN4)) == 2


def test_min_distance_builds_a_bit_view_only_to_scan(symbol_masks_calls):
    # (6,5)_3: C(6,5) = 6 <= 30, so its six 5-subsets certify d = 2
    code = sum_zero_code(5, Field(3))
    assert min_distance(code) == 2
    assert symbol_masks_calls == []
    # one word swapped: a 5-subset repeats a tuple, so the scan finds d = 1
    words = set(code.words)
    words.remove(bytes((0, 0, 0, 0, 0, 0)))
    words.add(bytes((0, 0, 0, 0, 0, 1)))
    assert min_distance(Code(3, words)) == 1
    assert len(symbol_masks_calls) == 1
    # a moved ext-RS (10,3)_9: C(10,3) = 120 > 30, so the scan, on one view
    rng = random.Random(9)
    moves = [SP(p, rng.sample(range(9), 9)) for p in range(10)] + [PP(0, 9)]
    moved = apply_moves(extended_rs_code(Field(9), 3), moves)
    assert min_distance(moved) == 8
    assert len(symbol_masks_calls) == 2


def test_one_word_order_per_code():
    # sorted_words sorts once; format_code and iteration read that same tuple
    code = extended_rs_code(Field(5), 2)
    words = code.sorted_words()
    assert words is code.sorted_words()
    assert isinstance(words, tuple) and list(words) == sorted(code.words)
    assert list(code) == list(words)
    assert format_code(code).splitlines()[2:] == [" ".join(map(str, w)) for w in words]


def _is_affine(perm, field):
    """True iff perm(x + y) = perm(x) + perm(y) - perm(0) in GF(q)'s
    addition for all x, y: a relabeling that keeps a group code one."""
    return all(perm[field.add(x, y)] == field.sub(field.add(perm[x], perm[y]), perm[0])
               for x in field.elements for y in field.elements)


@st.composite
def group_route_cases(draw):
    """(kind, code) for the group route's differential test, at most 128
    words each.  linear: [I | A] over GF(q) at any supported order, its
    positions permuted, so the first k positions are an information set
    only sometimes.  relabeled: an RS code with C(n, k) > n*k, each
    position relabeled, position 0 by a map that is not affine, so not
    a coset (q >= 5, since for q <= 4 every relabeling is affine).
    sum-zero: the sum-zero code mod 6 or mod 10 with drawn extra
    columns [I | A] mod q, a group code of Z_q.  random: a random word
    set."""
    kind = draw(st.sampled_from(["linear", "relabeled", "sum-zero", "random"]))
    if kind == "relabeled":
        q = draw(st.sampled_from([5, 7, 8, 9]))
        field = Field(q)
        code = (extended_rs_code(field, 2) if q == 5
                else rs_code(field, 2, range(draw(st.integers(6, q)))))
        perms = [draw(st.permutations(range(q))) for _ in range(code.n)]
        if _is_affine(perms[0], field):
            # the affine maps form a group that lacks a transposition
            perms[0] = [{1: 2, 2: 1}.get(s, s) for s in perms[0]]
        return kind, Code(q, {tuple(perm[s] for perm, s in zip(perms, w)) for w in code.words})
    q = draw(st.sampled_from(list(SUPPORTED_ORDERS) if kind == "linear"
                             else [6, 10] if kind == "sum-zero" else [2, 3, 4, 5, 6]))
    k = draw(st.integers(1, max(1, math.floor(math.log(128, q) + 1e-9))))
    n = draw(st.integers(k + 1, max(k + 1, 7)))
    if kind == "random":
        picks = draw(st.sets(st.integers(0, q ** n - 1), min_size=q ** k, max_size=q ** k))
        return kind, Code(q, [tuple(x // q ** p % q for p in range(n)) for x in picks])
    tail = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
                         min_size=n - k, max_size=n - k))
    if kind == "sum-zero":
        tail[0] = [q - 1] * k
        words = [x + tuple(sum(a * c for a, c in zip(x, column)) % q for column in tail)
                 for x in product(range(q), repeat=k)]
        return kind, Code(q, words)
    field = Field(q)
    order = draw(st.permutations(range(n)))
    words = []
    for x in product(range(q), repeat=k):
        word = list(x)
        for column in tail:
            s = 0
            for a, c in zip(x, column):
                s = field.add(s, field.mul(a, c))
            word.append(s)
        words.append(tuple(word[p] for p in order))
    return kind, Code(q, words)


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=group_route_cases())
def test_group_route_matches_scan_and_oracle(case, symbol_masks_calls):
    kind, code = case
    symbol_masks_calls.clear()
    expected = pairwise_min_distance(code)
    group = _coset_distance(code)
    assert symbol_masks_calls == []
    assert group in (None, expected)
    assert _scan_distance(code) == expected
    if kind == "relabeled":
        # not a coset: min_distance takes the scan, on one bit-sliced view
        assert group is None
        fresh = Code(code.q, code.words)
        symbol_masks_calls.clear()
        assert min_distance(fresh) == expected
        assert len(symbol_masks_calls) == 1
    elif kind == "linear":
        assert (group is not None) == information_set_check(code, range(code.k))
    elif kind == "sum-zero":
        assert group is not None


def test_group_route_keeps_the_prefix_checks():
    # {00, 01} and {10, 11} are cosets of subgroups of Z_2^2, and the
    # least word plus the span of the other's difference rebuilds each,
    # but in the first the word at index 1 has k-prefix 0, not 1, and in
    # the second the least word's k-prefix is not zero: the first k
    # positions are no information set, so the route declines both
    assert _coset_distance(Code(2, [(0, 0), (0, 1)])) is None
    assert _coset_distance(Code(2, [(1, 0), (1, 1)])) is None


class _NoLookups(frozenset):
    """A word set that fails the test on a membership lookup."""

    def __contains__(self, word):
        pytest.fail("membership lookup in the group route")


def test_group_route_on_a_65536_word_code(symbol_masks_calls, monkeypatch):
    # ext-RS (257,2)_256 takes the group route with no bit-sliced view,
    # no lookup in the word set and at most one transpose: none from its
    # zero least word, whose count runs word by word, and one from a
    # translate's nonzero least word, in agreements
    code = extended_rs_code(256, 2)
    add = symbol_group(256)[0]
    v = b"\x01" + bytes(256)           # weight 1 < d, so no codeword
    translated = Code._of(256, rows_of([column.translate(add[s]) for column, s
                                        in zip(columns_of(code.words, code.n), v)]))
    transposes = []
    monkeypatch.setattr(mdskit.codes, "rows_of",
                        lambda columns: transposes.append(len(columns)) or rows_of(columns))
    for copy, expected in ((Code._of(256, code.words), []), (translated, [257])):
        copy.words = _NoLookups(copy.words)
        transposes.clear()
        symbol_masks_calls.clear()
        assert min_distance(copy) == 256
        assert symbol_masks_calls == []
        assert transposes == expected


# the order of each symbol group's generators: the prime p of q = p^m,
# or q itself where q is not a prime power
GENERATOR_ORDER = {2: 2, 3: 3, 4: 2, 6: 6, 9: 3, 10: 10, 12: 12, 243: 3, 256: 2}


def per_word_span(base, shifts, q):
    """Oracle for span_columns: one word per digit tuple, in
    itertools.product order, each digit's multiple of its shift added
    one group addition at a time."""
    add = symbol_group(q)[0]
    rows = []
    for digits in product(range(GENERATOR_ORDER[q]), repeat=len(shifts)):
        word = list(base)
        for d, shift in zip(digits, shifts):
            for _ in range(d):
                word = [add[a][s] for a, s in zip(word, shift)]
        rows.append(bytes(word))
    return [bytes(column) for column in zip(*rows)]


@st.composite
def spans(draw):
    """(base, shifts, q) spanning at most 729 words of length 1 to 5,
    with q over Z_6, Z_10 and Z_12, odd p up to m = 5 and p = 2 up to
    m = 8; a shift is all zero a fifth of the time."""
    q = draw(st.sampled_from(sorted(GENERATOR_ORDER)))
    n = draw(st.integers(1, 5))
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(bytes)
    t = draw(st.integers(1, int(math.log(729, GENERATOR_ORDER[q]) + 1e-9)))
    shift = st.one_of(st.just(bytes(n)), word, word, word, word)
    return draw(word), draw(st.lists(shift, min_size=t, max_size=t)), q


@settings(deadline=None, max_examples=300)
@given(case=spans())
def test_span_columns_match_the_per_word_oracle(case):
    base, shifts, q = case
    assert span_columns(base, shifts, q) == per_word_span(base, shifts, q)


@pytest.mark.parametrize("q", sorted(GENERATOR_ORDER))
def test_span_columns_of_one_shift_and_of_a_zero_shift(q):
    base, shift, zero = bytes((q - 1, 0, 1)), bytes((1, 1, q - 1)), bytes(3)
    for shifts in ([shift], [zero], [shift, zero], [zero, shift]):
        columns = span_columns(base, shifts, q)
        assert columns == per_word_span(base, shifts, q)
        assert len(columns[0]) == GENERATOR_ORDER[q] ** len(shifts)


def test_span_columns_run_in_digit_order():
    # Z_6: 5 + d*1 for d = 0..5; Z_2^2 (q = 4): 3 + d1*1 + d2*2, with
    # d1 the most significant digit
    assert span_columns(b"\x05", [b"\x01"], 6) == [bytes((5, 0, 1, 2, 3, 4))]
    assert span_columns(b"\x03", [b"\x01", b"\x02"], 4) == [bytes((3, 1, 2, 0))]
    assert span_columns(b"\x02\x07", [], 8) == [b"\x02", b"\x07"]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_symbol_group_adds_like_the_field(q):
    # the field takes its add rows from the group: one table per order
    assert Field(q).add_rows is symbol_group(q)[0]


@pytest.mark.parametrize("q, add, generators", [
    (6, lambda a, b: (a + b) % 6, (1,)),
    (10, lambda a, b: (a + b) % 10, (1,)),
    (12, lambda a, b: (a + b) % 12, (1,)),
    (256, operator.xor, (1, 2, 4, 8, 16, 32, 64, 128)),    # GF(256) adds by XOR
])
def test_symbol_group_past_the_supported_orders(q, add, generators):
    rows = tuple(bytes(add(a, b) for b in range(q)).ljust(256, b"\0") for a in range(q))
    assert symbol_group(q) == (rows, generators)


def per_pair_symbol_group(q):
    """Oracle for symbol_group: each of the q^2 sums by its digits mod p,
    the formula symbol_group used before it built rows by translates."""
    p, m = mdskit.galois.prime_power(q) or (q, 1)
    places = tuple(p ** j for j in range(m))

    def add(a, b):
        return sum((a // u + b // u) % p * u for u in places)

    return tuple(bytes(add(a, b) for b in range(q)).ljust(256, b"\0") for a in range(q)), places


@pytest.mark.parametrize("q", range(2, MAX_SYMBOLS + 1))
def test_symbol_group_matches_the_per_pair_sums(q):
    assert symbol_group(q) == per_pair_symbol_group(q)


def per_bit_symbol_masks(words, n, q):
    """Oracle for symbol_masks: one bit set per word and position."""
    masks = [[0] * q for _ in range(n)]
    for j, w in enumerate(words):
        for p, s in enumerate(w):
            masks[p][s] |= 1 << j
    return masks


@st.composite
def word_lists(draw):
    """Words of one length over 0..q-1, repeats allowed, with q on both
    sides of 256, the largest alphabet whose symbols fit in a byte."""
    q = draw(st.one_of(st.integers(2, 300), st.sampled_from([255, 256, 257])))
    n = draw(st.integers(1, 5))
    words = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=40))
    return words, n, q


@settings(deadline=None, max_examples=200)
@given(word_lists())
def test_symbol_masks_match_per_bit_oracle(case):
    words, n, q = case
    if q > MAX_SYMBOLS:
        # a symbol past 255 fits in no byte, so no code holds such words
        with pytest.raises(SearchSpaceTooLarge, match=f"^q = {q} exceeds the symbol limit 256$"):
            Code(q, words or [(0,) * n])
        return
    words = [bytes(w) for w in words]
    assert symbol_masks(words, n, q) == per_bit_symbol_masks(words, n, q)


@pytest.mark.parametrize("q", [16, 27])
def test_is_mds_on_long_extended_rs(q):
    # (17,3)_16 has 4096 words and (28,3)_27 has 19683: far past a pairwise scan
    report = is_mds(extended_rs_code(Field(q), 3))
    assert report.is_mds and report.d == q + 1 - 3 + 1 == report.singleton_bound


def test_min_distance_scans_a_relabeled_long_extended_rs(symbol_masks_calls):
    # (17,3)_16 relabeled per position: not a coset, so the bit-sliced
    # scan runs over all 4096 words
    rng = random.Random(16)
    code = extended_rs_code(Field(16), 3)
    moved = apply_moves(code, [SP(p, rng.sample(range(16), 16)) for p in range(17)])
    assert min_distance(moved) == 15
    assert symbol_masks_calls == [moved.sorted_words()]


def test_require_mds():
    assert require_mds(Code(2, EVEN4)).d == 2
    with pytest.raises(NotMds, match="d=1 < 2"):
        require_mds(Code(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]))


def test_is_mds_scans_a_code_once(min_distance_calls):
    code = Code(2, EVEN4)
    assert require_mds(code).d == require_mds(code).d == 2
    assert min_distance_calls == [code]


def test_equal_code_built_anew_is_scanned_again(min_distance_calls):
    first, second = Code(2, EVEN4), Code(2, EVEN4)
    assert first == second
    assert is_mds(first) == is_mds(second)
    assert [id(c) for c in min_distance_calls] == [id(first), id(second)]


def test_length_bound():
    assert length_bound(1, 2) == math.inf
    assert length_bound(2, 2) == 3       # q <= k: k+1
    assert length_bound(3, 3) == 4
    assert length_bound(2, 3) == 4       # q > k: q+k-1
    assert length_bound(3, 5) == 6       # odd q, 3 <= k < q: q+k-2 (Bush)


def test_is_mds_raises_beyond_length_bound(monkeypatch):
    code = Code(2, EVEN4)
    assert is_mds(code).is_mds
    monkeypatch.setattr(mdskit.codes, "length_bound", lambda k, q: code.n - 1)
    with pytest.raises(TheoremViolation, match="length bound 3"):
        is_mds(code)


def test_package_has_no_assert_statements():
    # python -O strips asserts, so checks must raise explicitly
    for path in Path(mdskit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name}: assert at lines {asserts}"


def test_information_set_check():
    code = Code(2, EVEN4)
    assert information_set_check(code, [0, 1, 2])
    assert information_set_check(code, [1, 2, 3])
    with pytest.raises(BadPositions):
        information_set_check(code, [0, 1])  # k=3 positions required
    with pytest.raises(BadPositions):
        information_set_check(code, [0, 1, 1])
    with pytest.raises(BadPositions):
        information_set_check(code, [0, 1, 9])


def test_format_and_parse_round_trip(tmp_path):
    code = Code(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1)])
    path = tmp_path / "c.txt"
    write_code(code, path)
    assert read_code(path) == code
    text = format_code(code)
    assert text.splitlines()[0] == "MDSKIT v1"
    assert text.splitlines()[1] == "q=3 n=2"
    assert parse_code(text) == code


@st.composite
def valid_codes(draw):
    """Any valid code: q^k distinct words of length n over 0..q-1, with
    two-digit symbols once q > 10, three-digit ones once q > 100 (in one
    word, as q^k is at most 64), and one-word (k = 0) codes."""
    q = draw(st.integers(2, MAX_SYMBOLS))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n).filter(lambda k: q ** k <= 64))
    picks = draw(st.sets(st.integers(0, q ** n - 1), min_size=q ** k, max_size=q ** k))
    return Code(q, [tuple(x // q ** p % q for p in range(n)) for x in picks])


@settings(deadline=None, max_examples=150)
@given(valid_codes())
def test_parse_inverts_format(code):
    assert parse_code(format_code(code)) == code


def joined_format(code):
    """Oracle for format_code: each word joined from one str per symbol,
    as format_code rendered it before it went through digit tables."""
    name = list(map(str, range(code.q))).__getitem__
    lines = ["MDSKIT v1", f"q={code.q} n={code.n}"]
    lines.extend(" ".join(map(name, w)) for w in code.sorted_words())
    return "\n".join(lines) + "\n"


# a symbol's name widens past q = 10 and q = 100, and each code holds
# every symbol; format_code renders 4096 words at a time, so the 10201
# words of the (2, 2)_101 universe code take three blocks
@pytest.mark.parametrize("code", [
    *(repetition_code(n, q) for q in (2, 10, 11, 100, 101, 256) for n in (1, 3)),
    universe_code(2, 101),
], ids=lambda code: f"n{code.n}k{code.k}q{code.q}")
def test_format_matches_joined_names(code, tmp_path):
    assert set(code.sorted_words()[-1]) == {code.q - 1}
    expected = joined_format(code)
    assert format_code(code) == expected
    write_code(code, tmp_path / "c.txt")
    assert (tmp_path / "c.txt").read_bytes() == expected.encode()
    assert parse_code(expected) == code


def test_parse_skips_blank_lines():
    text = "MDSKIT v1\nq=2 n=1\n\n0\n\n1\n"
    assert len(parse_code(text)) == 2


def checked_words(lines, n, q):
    """Oracle for parse_code's word lines: the regex, int() and range
    checks on every line, as parse_code ran them before it looked up
    canonical names."""
    words = []
    for lineno, line in enumerate(lines, start=3):
        if not line.strip():
            continue
        if not re.fullmatch(r"\s*-?[0-9]+(?:\s+-?[0-9]+)*\s*", line):
            raise CodeFileError(f"line {lineno}: non-integer symbol")
        word = tuple(map(int, line.split()))
        if len(word) != n:
            raise CodeFileError(f"line {lineno}: expected {n} symbols, got {len(word)}")
        if any(s < 0 or s >= q for s in word):
            raise CodeFileError(f"line {lineno}: symbol outside 0..{q - 1}")
        words.append(word)
    return words


# ways to write symbol s of an alphabet of q: the first three name s,
# the others are refused
SPELLINGS = {
    "canonical": lambda s, q: str(s),
    "zero-padded": lambda s, q: "00" + str(s),
    "minus-zero": lambda s, q: "-0" if s == 0 else str(s),
    "plus": lambda s, q: "+" + str(s),
    "underscore": lambda s, q: f"{s}_0",
    "past-q": lambda s, q: str(s + q),
    "negative": lambda s, q: f"-{s + 1}",
}


@st.composite
def spelled_code_files(draw):
    """A valid code written with drawn spellings, LF or CRLF line ends,
    blank lines and lines one symbol short (of two or more), as (code,
    text, word lines)."""
    code = draw(valid_codes())
    kinds = draw(st.lists(st.sampled_from(sorted(SPELLINGS)), min_size=1, max_size=3))
    lines = []
    for w in code.sorted_words():
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        tokens = [SPELLINGS[draw(st.sampled_from(kinds))](s, code.q) for s in w]
        if len(tokens) > 1 and draw(st.integers(0, 19)) == 0:
            tokens.pop()
        lines.append(" ".join(tokens))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines) + 2, max_size=len(lines) + 2))
    head = ["MDSKIT v1", f"q={code.q} n={code.n}"]
    return code, "".join(map(str.__add__, head + lines, ends)), lines


def assert_parse_matches_oracle(case):
    code, text, lines = case
    try:
        expected = Code(code.q, checked_words(lines, code.n, code.q))
    except CodeFileError as err:
        expected = str(err)
    try:
        got = parse_code(text)
    except CodeFileError as err:
        got = str(err)
    assert got == expected


@settings(deadline=None, max_examples=200)
@given(spelled_code_files())
def test_parse_matches_regex_per_line_oracle(case):
    assert_parse_matches_oracle(case)


@settings(deadline=None, max_examples=200)
@given(spelled_code_files(), st.integers(1, 12))
def test_parse_in_small_chunks_matches_regex_per_line_oracle(case, chunk):
    # with chunks of a few bytes every drawn file spans many, canonical
    # ones read by the block reader and the others line by line
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mdskit.codes, "_CHUNK", chunk)
        assert_parse_matches_oracle(case)


@pytest.fixture
def no_line_reads(monkeypatch):
    """Fails the test if a word line is read by the per-line loop."""
    def refuse(*args):
        pytest.fail("a chunk was read line by line")
    monkeypatch.setattr(mdskit.codes, "_line_words", refuse)


# one-digit names (q <= 10), two-digit and three-digit ones; (8,4)_7
# and (12,3)_11 fill two 16 KB chunks and a third in part, ext-RS
# (257,1)_256 fills sixteen
@pytest.mark.parametrize("code", [
    extended_rs_code(Field(7), 4), extended_rs_code(Field(11), 3), extended_rs_code(Field(256), 1),
], ids=lambda code: f"n{code.n}k{code.k}q{code.q}")
def test_canonical_chunks_are_never_read_line_by_line(code, no_line_reads):
    text = format_code(code)
    assert len(text) > 2 * mdskit.codes._CHUNK
    assert parse_code(text) == code
    # a last line with no LF is read line by line, in its own chunk
    with pytest.raises(pytest.fail.Exception, match="line by line"):
        parse_code(text[:-1])


def test_parse_reads_a_last_line_with_no_lf():
    for code in (extended_rs_code(Field(9), 3), extended_rs_code(Field(11), 3),
                 repetition_code(3, 256)):
        text = format_code(code)
        assert parse_code(text[:-1]) == code
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mdskit.codes, "_CHUNK", 5)
            assert parse_code(text[:-1]) == code


def test_parse_reads_a_line_longer_than_a_chunk(no_line_reads):
    code = repetition_code(10000, 2)        # two lines of 20000 bytes
    assert parse_code(format_code(code)) == code


@pytest.mark.parametrize("q", [10, 11, 100, 101, 256])
def test_parse_reads_words_in_any_order(q, no_line_reads):
    code = universe_code(2, q) if q < 256 else extended_rs_code(Field(256), 1)
    lines = format_code(code).split("\n")
    body = lines[2:-1]
    random.Random(q).shuffle(body)
    assert parse_code("\n".join(lines[:2] + body) + "\n") == code


@pytest.mark.parametrize("q, token", [(256, "256"), (256, "300"), (256, "999"), (11, "11")])
@pytest.mark.parametrize("chunk", [1, mdskit.codes._CHUNK])
@pytest.mark.parametrize("where", [0, -1])
def test_parse_refuses_a_symbol_past_q_in_a_later_chunk(q, token, chunk, where):
    # a line past the first 16 KB chunk; with chunks of one byte each
    # line is its own chunk, so a first token past 255 is the chunk's
    # first lane and overflows its int
    code = extended_rs_code(Field(q), 1 if q == 256 else 3)
    lines = format_code(code).split("\n")
    lineno = 2 * len(lines) // 3
    tokens = lines[lineno - 1].split(" ")
    tokens[where] = token
    lines[lineno - 1] = " ".join(tokens)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mdskit.codes, "_CHUNK", chunk)
        with pytest.raises(CodeFileError, match=f"^line {lineno}: symbol outside 0..{q - 1}$"):
            parse_code("\n".join(lines))


def test_parse_takes_crlf_line_ends(tmp_path):
    code = extended_rs_code(Field(3), 2)
    text = format_code(code).replace("\n", "\r\n")
    assert parse_code(text) == code
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.encode())
    assert read_code(path) == code


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029", "\r"])
def test_parse_breaks_lines_at_lf_only(brk, tmp_path):
    # str.splitlines breaks at each of these; the format breaks at LF alone
    for text, lineno in [(f"MDSKIT v1{brk}q=2 n=1{brk}0{brk}1{brk}", 1),
                         (f"MDSKIT v1\nq=2 n=1\n0{brk}1\n", 3),
                         (f"MDSKIT v1\nq=2 n=1\n0\n1\n{brk}", 5)]:
        with pytest.raises(CodeFileError, match=f"^line {lineno}: line break .* other than LF$"):
            parse_code(text)
        path = tmp_path / "c.txt"
        path.write_bytes(text.encode())
        with pytest.raises(CodeFileError, match=f"^line {lineno}: line break"):
            read_code(path)


@pytest.mark.parametrize("text,fragment", [
    ("", "header"),
    ("BAD HEADER\nq=2 n=1\n0\n", "header"),
    ("MDSKIT v1\n", "parameter"),
    ("MDSKIT v1\nq=x n=1\n0\n", "parameter"),
    ("MDSKIT v1\nn=1 q=2\n0\n", "parameter"),
    ("MDSKIT v1\nq=1_1 n=1\n0\n", "parameter"),
    ("MDSKIT v1\nq=+2 n=1\n0\n1\n", "parameter"),
    ("MDSKIT v1\nq=-2 n=1\n0\n", "q >= 2"),
    ("MDSKIT v1\nq=1 n=1\n0\n", "q >= 2"),
    ("MDSKIT v1\nq=2 n=2\n0 0\nha ha\n", "non-integer"),
    ("MDSKIT v1\nq=2 n=2\n0 0 1\n1 1\n", "expected 2 symbols"),
    ("MDSKIT v1\nq=2 n=2\n0 2\n1 1\n", "symbol outside"),
    ("MDSKIT v1\nq=2 n=2\n0 0\n-1 1\n", "line 4: symbol outside"),
    # only ASCII -?[0-9]+ tokens: int() would also take 1_0, +1 and U+0661
    ("MDSKIT v1\nq=11 n=1\n" + "".join(f"{s}\n" for s in range(10)) + "1_0\n",
     "line 13: non-integer symbol"),
    ("MDSKIT v1\nq=2 n=2\n0 0\n+1 1\n", "line 4: non-integer symbol"),
    ("MDSKIT v1\nq=2 n=2\n0 0\n\u0661 1\n", "line 4: non-integer symbol"),
    ("MDSKIT v1\nq=2 n=2\n0 0\n0 0\n", "duplicate"),
    ("MDSKIT v1\nq=2 n=2\n0 0\n0 1\n1 0\n", "power of q"),
])
def test_parse_rejects_malformed_files(text, fragment):
    with pytest.raises(CodeFileError) as err:
        parse_code(text)
    assert fragment in str(err.value)
