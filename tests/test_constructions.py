"""Construction families: parameters, the MDS property, and MOLS."""

import random
from itertools import combinations, product

import pytest

from mdskit import (
    Code,
    DimensionTooLarge,
    DuplicatePoints,
    Field,
    InvalidCode,
    InvalidParameters,
    LatinSquare,
    MolsSet,
    NotLatinSquare,
    NotMds,
    NotOrthogonal,
    NotPrime,
    OddCharacteristic,
    SearchSpaceTooLarge,
    UnsupportedOrder,
    WrongDimension,
    are_orthogonal,
    code_to_mols,
    cyclic_mols,
    doubly_extended_rs,
    extended_rs_code,
    is_mds,
    mols_to_code,
    repetition_code,
    rs_code,
    sum_zero_code,
    universe_code,
)
from mdskit.errors import MAX_WORD_LENGTH
from mdskit.galois import SUPPORTED_ORDERS


def _check(code, n, k, q):
    assert (code.n, code.k, code.q) == (n, k, q)
    assert code.contains_zero()
    assert is_mds(code).is_mds


def test_repetition_and_universe():
    _check(repetition_code(5, 3), 5, 1, 3)
    _check(universe_code(3, 2), 3, 3, 2)
    # repetition works for alphabets that are not prime powers
    _check(repetition_code(4, 6), 4, 1, 6)


@pytest.mark.parametrize("k,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 5), (2, 4)])
def test_sum_zero(k, q):
    code = sum_zero_code(k, Field(q))
    _check(code, k + 1, k, q)
    assert is_mds(code).d == 2


# the exhaustive oracles run at the orders up to 27 whose moduli
# tests/test_galois.py pins; each grows as q^k per order
SMALL_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


@pytest.mark.parametrize("q,k", [(q, k) for q in SMALL_ORDERS
                                 for k in range(1, 13) if q ** k <= 4096])
def test_sum_zero_matches_a_per_word_sum(q, k):
    # the builder reads the last coordinate off -f(1); the oracle sums
    # each prefix through Field.add and negates it
    field = Field(q)
    words = set()
    for prefix in product(field.elements, repeat=k):
        total = 0
        for s in prefix:
            total = field.add(total, s)
        words.add(bytes(prefix + (field.neg(total),)))
    assert sum_zero_code(k, field).words == words


def test_rs_code():
    f = Field(5)
    code = rs_code(f, 2, [0, 1, 2, 3])
    _check(code, 4, 2, 5)
    full = rs_code(f, 3, list(f.elements))
    _check(full, 5, 3, 5)
    with pytest.raises(DuplicatePoints):
        rs_code(f, 2, [0, 1, 1])
    with pytest.raises(InvalidParameters):
        rs_code(f, 2, [0, 7])
    with pytest.raises(InvalidParameters):
        rs_code(f, 2, [0, 1.0, 2])
    with pytest.raises(InvalidParameters, match="must be field elements"):
        rs_code(f, 2, [0, True, 2])
    with pytest.raises(DimensionTooLarge):
        rs_code(f, 4, [0, 1, 2])
    with pytest.raises(DimensionTooLarge):
        extended_rs_code(f, 6)          # k > q


@pytest.mark.parametrize("build", [
    lambda: repetition_code(3.0, 2),
    lambda: repetition_code(3, 2.0),
    lambda: universe_code(2.0, 3),
    lambda: universe_code(2, 3.0),
    lambda: sum_zero_code(2.0, Field(5)),
    lambda: rs_code(Field(5), 2.0, [0, 1, 2]),
    lambda: extended_rs_code(Field(5), 2.0),
    lambda: cyclic_mols(5.0),
    lambda: cyclic_mols("5"),
    lambda: repetition_code(True, 2),
    lambda: MolsSet(5.0, cyclic_mols(5).squares),
    lambda: MolsSet("5", cyclic_mols(5).squares),
])
def test_builders_refuse_non_integer_parameters(build):
    # the builders' words are not checked again, so a float must not reach them
    with pytest.raises(InvalidParameters, match="is not an integer"):
        build()


@pytest.mark.parametrize("build,power", [
    (lambda: universe_code(17, 2), "131072"),
    (lambda: universe_code(3, 10 ** 300), "exceeds the word limit 65536: q > 65536"),
    (lambda: sum_zero_code(17, Field(2)), "131072"),
    (lambda: sum_zero_code(10 ** 300, 2), "exceeds the word limit 65536: k > 65536"),
    (lambda: rs_code(Field(2), 17, range(2)), "131072"),
    (lambda: rs_code(10 ** 300, 2, range(3)), "exceeds the word limit 65536: q > 65536"),
    (lambda: extended_rs_code(Field(2), 17), "131072"),
    (lambda: doubly_extended_rs(65537), "281487861809153"),
    (lambda: cyclic_mols(257), "66049"),
    (lambda: repetition_code(2, 65537), "65537"),
])
def test_builders_refuse_past_the_word_limit(build, power):
    # each refuses before it builds anything: the field builders before
    # the field of an order they are given, rs before it lists its points
    with pytest.raises(SearchSpaceTooLarge, match=f"q\\^k.*{power}"):
        build()


def test_repetition_code_checks_its_length():
    assert len(repetition_code(MAX_WORD_LENGTH, 2).words) == 2
    with pytest.raises(SearchSpaceTooLarge, match="^n = 65537 exceeds the word length limit"):
        repetition_code(MAX_WORD_LENGTH + 1, 2)
    with pytest.raises(SearchSpaceTooLarge, match="^n exceeds the word length limit 65536: n > "):
        repetition_code(10 ** 300, 2)
    # a length below 1 is refused as Code refuses it, after a q below 2,
    # and one far below it raises no OverflowError
    for n in (0, -1, -10 ** 300):
        with pytest.raises(InvalidCode, match="^words must have length at least 1$"):
            repetition_code(n, 2)
        with pytest.raises(InvalidCode, match="^alphabet size q=1 must be at least 2$"):
            repetition_code(n, 1)


def test_universe_code_refuses_a_small_alphabet_before_listing_words():
    for q in (1, 0, -10 ** 300):
        with pytest.raises(InvalidCode, match="^alphabet size q"):
            universe_code(10 ** 300, q)


def test_field_builders_take_a_field_or_its_order():
    assert sum_zero_code(3, 5) == sum_zero_code(3, Field(5))
    assert rs_code(5, 2, [0, 2, 4]) == rs_code(Field(5), 2, [0, 2, 4])
    assert extended_rs_code(4, 3) == extended_rs_code(Field(4), 3)
    assert doubly_extended_rs(8) == doubly_extended_rs(Field(8))
    with pytest.raises(UnsupportedOrder, match="^q=6 is not a supported prime power$"):
        extended_rs_code(6, 2)
    with pytest.raises(SearchSpaceTooLarge, match=r"^q\^k = 90000.0 exceeds the word limit"):
        sum_zero_code(2, 300.0)
    # a k below 1 takes no word count, so the field refuses the order first
    with pytest.raises(UnsupportedOrder, match="^q > 65536 is not a supported prime power$"):
        sum_zero_code(0, 10 ** 19)


@pytest.mark.parametrize("q,k", [(3, 2), (4, 2), (4, 3), (5, 3), (7, 2)])
def test_extended_rs(q, k):
    code = extended_rs_code(Field(q), k)
    _check(code, q + 1, k, q)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_evaluation_builders_match_poly_eval(q):
    # the builders evaluate column by column; Field.poly_eval, one
    # polynomial and point at a time, is the oracle
    field = Field(q)
    for k in range(1, min(q, 3 if q ** 3 <= 4096 else 2) + 1):
        polys = list(field.all_polynomials(k))
        assert extended_rs_code(field, k).words == {
            bytes(tuple(field.poly_eval(c, a) for a in field.elements) + (c[k - 1],))
            for c in polys}
        points = list(reversed(field.elements))[:max(k, q - 1)]
        assert rs_code(field, k, points).words == {
            bytes(field.poly_eval(c, a) for a in points) for c in polys}
    if field.p == 2 and q >= 4:
        assert doubly_extended_rs(field).words == {
            bytes(tuple(field.poly_eval((c, b, e), a) for a in field.elements) + (b, e))
            for c, b, e in product(field.elements, repeat=3)}


@pytest.mark.parametrize("q", [q for q in SUPPORTED_ORDERS if q not in SMALL_ORDERS])
def test_span_builders_match_poly_eval_past_the_small_orders(q):
    # 50 seeded polynomials per order stand in for all q^2: each word
    # Field.poly_eval gives must be in the built code
    field = Field(q)
    rng = random.Random(q)
    polys = [(rng.randrange(q), rng.randrange(q)) for _ in range(50)]
    points = list(reversed(field.elements))[:4]
    code = rs_code(field, 2, points)
    assert len(code.words) == q ** 2
    assert all(bytes(field.poly_eval(c, a) for a in points) in code.words for c in polys)
    code = extended_rs_code(field, 2)
    assert len(code.words) == q ** 2
    assert all(bytes((*(field.poly_eval(c, a) for a in field.elements), c[1])) in code.words
               for c in polys)


def test_doubly_extended_rs_32_matches_poly_eval():
    field = Field(32)
    rng = random.Random(32)
    code = doubly_extended_rs(field)
    assert len(code.words) == 32 ** 3
    for _ in range(50):
        c, b, e = (rng.randrange(32) for _ in range(3))
        assert bytes((*(field.poly_eval((c, b, e), a) for a in field.elements), b, e)) in code.words


def test_doubly_extended_rs():
    code = doubly_extended_rs(Field(4))
    _check(code, 6, 3, 4)
    code8 = doubly_extended_rs(Field(8))
    _check(code8, 10, 3, 8)
    with pytest.raises(OddCharacteristic):
        doubly_extended_rs(Field(5))
    with pytest.raises(OddCharacteristic):
        doubly_extended_rs(Field(2))  # needs q >= 4


def test_latin_square_validation():
    square = LatinSquare([[0, 1], [1, 0]])
    assert square[0, 1] == 1 and square[1, 1] == 0
    same = LatinSquare(([0, 1], (1, 0)))
    assert square == same and hash(square) == hash(same)
    assert repr(square) == "LatinSquare(order=2)"
    with pytest.raises(NotLatinSquare):
        LatinSquare([[0, 1], [0, 1]])  # repeated column entries
    with pytest.raises(NotLatinSquare):
        LatinSquare([[0, 0], [1, 1]])  # repeated row entries
    with pytest.raises(NotLatinSquare):
        LatinSquare([[0, 1]])  # not square


@pytest.mark.parametrize("cells", [
    [[0, 1.0], [1.0, 0]],
    [[0, True], [True, False]],
], ids=["float", "bool"])
def test_latin_square_refuses_non_integer_cells(cells):
    # 1.0 and True equal 1, so they pass a set comparison with range(q);
    # MolsSet builds its code from the cells without checking them again
    with pytest.raises(NotLatinSquare):
        LatinSquare(cells)


def test_orthogonality():
    a = LatinSquare([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    b = LatinSquare([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert are_orthogonal(a, b)
    assert not are_orthogonal(a, a)
    MolsSet(3, [a, b])
    with pytest.raises(NotOrthogonal):
        MolsSet(3, [a, a])
    with pytest.raises(NotOrthogonal, match="square of order 3 in an order-4 set"):
        MolsSet(4, [a, b])


@pytest.mark.parametrize("p", [5, 7])
def test_mols_set_accepts_exactly_the_orthogonal_sets(p):
    # the MDS check of MolsSet against the pairwise oracle, on subsets of
    # the cyclic squares with a repeated, a transposed or a row-permuted
    # square added; a transposed or permuted square is orthogonal to
    # some cyclic squares and not to others
    squares = cyclic_mols(p).squares
    first, second, third = squares[:3]
    extras = [
        first,
        LatinSquare(zip(*second.cells)),
        LatinSquare(third.cells[1:] + third.cells[:1]),
    ]
    sets = [list(c) for r in (1, 2, 3) for c in combinations(squares, r)]
    sets += [list(c) + [e] for e in extras
             for r in (1, 2) for c in combinations(squares, r)]
    verdicts = set()
    for chosen in sets:
        orthogonal = all(are_orthogonal(a, b) for a, b in combinations(chosen, 2))
        verdicts.add(orthogonal)
        if orthogonal:
            assert MolsSet(p, chosen).squares == tuple(chosen)
        else:
            with pytest.raises(NotOrthogonal):
                MolsSet(p, chosen)
    assert verdicts == {True, False}


def test_mols_set_of_order_one_is_not_a_code():
    with pytest.raises(InvalidCode):
        MolsSet(1, [LatinSquare([[0]])])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclic_mols(p):
    mols = cyclic_mols(p)
    assert len(mols) == p - 1
    assert mols.order == p
    assert repr(mols) == f"MolsSet(order={p}, squares={p - 1})"


def test_cyclic_mols_rejects_composites():
    for bad in (4, 6, 9, 1):
        with pytest.raises(NotPrime):
            cyclic_mols(bad)


def test_mols_code_round_trip():
    mols = cyclic_mols(5)
    code = mols_to_code(mols)
    assert code is mols.code
    _check(code, 6, 2, 5)
    assert code_to_mols(code) == mols


def test_code_to_mols_scans_its_input_once(min_distance_calls):
    code = extended_rs_code(Field(7), 2)          # a fresh (8, 2)_7 code
    mols = code_to_mols(code)
    assert min_distance_calls == [code]
    assert len(mols) == 6 and mols.code == code
    assert all(are_orthogonal(a, b) for a, b in combinations(mols.squares, 2))
    assert MolsSet(7, mols.squares) == mols


def test_code_to_mols_rejects_wrong_shapes():
    with pytest.raises(WrongDimension):
        code_to_mols(universe_code(3, 2))  # k != 2
    with pytest.raises(WrongDimension):
        code_to_mols(universe_code(2, 3))  # n < 3
    bad = sum_zero_code(2, Field(3))  # (3,2)_3 is fine, so break it
    from mdskit import Code
    words = [w for w in bad.words if w != bytes((1, 2, 0))] + [(1, 2, 1)]
    with pytest.raises(NotMds):
        code_to_mols(Code(3, words))


def _cyclic_words(p):
    return [(i, j) + tuple((a * i + j) % p for a in range(1, p))
            for i in range(p) for j in range(p)]


def _squares_by_prefix(code):
    # the oracle: index the words by their first two symbols
    q = code.q
    by_prefix = {tuple(w[:2]): w for w in code.words}
    return tuple(LatinSquare([[by_prefix[i, j][t] for j in range(q)] for i in range(q)])
                 for t in range(2, code.n))


PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("p", PRIMES + [17, 19, 23, 29, 31])
def test_cyclic_mols_code_matches_the_formula(p):
    # cyclic_mols builds its words unchecked, column by column from the
    # evaluations of c0 + c1*x; Code checks every symbol of the per-cell
    # formula
    assert mols_to_code(cyclic_mols(p)) == Code(p, _cyclic_words(p))


@pytest.mark.parametrize("build", [lambda p=p: Code(p, _cyclic_words(p)) for p in PRIMES]
                         + [lambda: extended_rs_code(Field(8), 2),
                            lambda: extended_rs_code(Field(9), 2)],
                         ids=[f"cyclic-{p}" for p in PRIMES] + ["ext-rs-8", "ext-rs-9"])
def test_code_to_mols_matches_squares_read_by_prefix(build):
    # MolsSet reads its squares off the sorted words, a row of q words
    # at a time; the oracle looks each cell up by its (row, column) prefix
    code = build()
    mols = code_to_mols(code)
    assert mols_to_code(mols) is code
    assert mols.squares == _squares_by_prefix(code)
    assert MolsSet(code.q, mols.squares) == mols
