"""Construction families: parameters, the MDS property, and MOLS."""

from itertools import combinations

import pytest

from mdskit import (
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
    with pytest.raises(DimensionTooLarge):
        rs_code(f, 4, [0, 1, 2])


@pytest.mark.parametrize("q,k", [(3, 2), (4, 2), (4, 3), (5, 3), (7, 2)])
def test_extended_rs(q, k):
    code = extended_rs_code(Field(q), k)
    _check(code, q + 1, k, q)


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
    LatinSquare([[0, 1], [1, 0]])
    with pytest.raises(NotLatinSquare):
        LatinSquare([[0, 1], [0, 1]])  # repeated column entries
    with pytest.raises(NotLatinSquare):
        LatinSquare([[0, 0], [1, 1]])  # repeated row entries
    with pytest.raises(NotLatinSquare):
        LatinSquare([[0, 1]])  # not square


def test_orthogonality():
    a = LatinSquare([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    b = LatinSquare([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert are_orthogonal(a, b)
    assert not are_orthogonal(a, a)
    MolsSet(3, [a, b])
    with pytest.raises(NotOrthogonal):
        MolsSet(3, [a, a])


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
    words = [w for w in bad.words if w != (1, 2, 0)] + [(1, 2, 1)]
    with pytest.raises(NotMds):
        code_to_mols(Code(3, words))
