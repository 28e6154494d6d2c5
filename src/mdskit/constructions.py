"""Builders for the MDS code families used throughout the toolkit.

Covers the trivial families (repetition, universe, sum-zero), polynomial
evaluation codes over GF(q) including the singly- and doubly-extended
variants, and the two-way bridge between (n, 2)_q MDS codes and sets of
n-2 mutually orthogonal Latin squares.
"""

import itertools

from .codes import Code, is_mds, is_position, require_mds
from .errors import (
    DimensionTooLarge,
    DuplicatePoints,
    InvalidParameters,
    NotLatinSquare,
    NotOrthogonal,
    NotPrime,
    OddCharacteristic,
    WrongDimension,
    check_integers,
)


def repetition_code(n, q):
    """(n, 1)_q code {(i, .., i)}; minimum distance n."""
    check_integers(n=n, q=q)
    return Code._of(q, [(i,) * n for i in range(q)])


def universe_code(k, q):
    """(k, k)_q code consisting of every word; minimum distance 1."""
    check_integers(k=k, q=q)
    if k < 1:
        raise InvalidParameters(f"need k >= 1, got k={k}")
    return Code._of(q, itertools.product(range(q), repeat=k))


def sum_zero_code(k, field):
    """(k+1, k)_q code of words whose field-sum is zero; distance 2.

    Over GF(2) this is the even-weight (single-parity-check) code.  The
    first k coordinates run over the coefficients c0..c_{k-1} of every
    polynomial f of degree < k, and the last is -f(1), minus their sum.
    """
    check_integers(k=k)
    if k < 1:
        raise InvalidParameters(f"need k >= 1, got k={k}")
    (at_one,) = _evaluations(field, k, (1,))
    return Code._of(field.q, zip(*(_coefficients(field.q, k, j) for j in range(k)),
                                 at_one.translate(field.neg_row)))


def _evaluations(field, k, points):
    """Per point a, the bytes f(a) for every polynomial f of degree < k,
    in the order of field.all_polynomials(k).  That order runs over c0
    and, for each, over every g of degree < k-1 in the same order, where
    f = c0 + x*g; so a's column is, for each c0 in turn, g's column
    times a plus c0, each a translate through a row of the field."""
    columns = []
    for a in points:
        column = bytes(field.elements)
        for _ in range(k - 1):
            product = column.translate(field.mul_rows[a])
            column = b"".join(product.translate(row) for row in field.add_rows)
        columns.append(column)
    return columns


def _coefficients(q, k, j):
    """Coefficient c_j of every polynomial of degree < k, in the order of
    Field.all_polynomials(k)."""
    return b"".join(bytes((c,)) * q ** (k - 1 - j) for c in range(q)) * q ** j


def rs_code(field, k, points):
    """Evaluation code: (f(a_1), .., f(a_n)) over all q^k polynomials deg < k.

    Distinct evaluation points, 1 <= k <= n <= q.  Always MDS: two distinct
    polynomials of degree < k agree on at most k-1 points.
    """
    points = tuple(points)
    check_integers(k=k)
    if len(set(points)) != len(points):
        raise DuplicatePoints(f"evaluation points {points} are not distinct")
    if not all(is_position(p, field.q) for p in points):
        raise InvalidParameters(f"points {points} must be field elements")
    if not 1 <= k <= len(points):
        raise DimensionTooLarge(f"need 1 <= k <= n={len(points)}, got k={k}")
    return Code._of(field.q, zip(*_evaluations(field, k, points)))


def extended_rs_code(field, k):
    """Length q+1 evaluation code: f at every field element, then the
    degree-(k-1) coefficient as the extra coordinate.
    """
    check_integers(k=k)
    if not 1 <= k <= field.q:
        raise DimensionTooLarge(f"need 1 <= k <= q={field.q}, got k={k}")
    return Code._of(field.q, zip(*_evaluations(field, k, field.elements),
                                 _coefficients(field.q, k, k - 1)))


def doubly_extended_rs(field):
    """(q+2, 3)_q code over even-order fields: f = c + b*x + e*x^2 evaluated
    at every field element, then b, then e, over all (c, b, e).

    Only exists for characteristic 2; distance q.
    """
    if field.p != 2 or field.q < 4:
        raise OddCharacteristic(f"requires characteristic 2 and q >= 4, got q={field.q}")
    return Code._of(field.q, zip(*_evaluations(field, 3, field.elements),
                                 _coefficients(field.q, 3, 1), _coefficients(field.q, 3, 2)))


# ------------------------------------------------------- Latin squares

class LatinSquare:
    """q x q array of ints whose rows and columns are permutations of 0..q-1."""

    def __init__(self, cells):
        cells = tuple(tuple(row) for row in cells)
        q = len(cells)
        full = set(range(q))
        for row in cells:
            if len(row) != q or set(row) != full or not all(is_position(s, q) for s in row):
                raise NotLatinSquare(f"row {row} is not a permutation of 0..{q - 1}")
        for j in range(q):
            if {row[j] for row in cells} != full:
                raise NotLatinSquare(f"column {j} is not a permutation of 0..{q - 1}")
        self.order = q
        self.cells = cells

    def __getitem__(self, ij):
        i, j = ij
        return self.cells[i][j]

    def __eq__(self, other):
        return isinstance(other, LatinSquare) and other.cells == self.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return f"LatinSquare(order={self.order})"


def are_orthogonal(a, b):
    """Superposing a over b yields every ordered pair exactly once."""
    q = a.order
    pairs = {(a.cells[i][j], b.cells[i][j])
             for i in range(q) for j in range(q)}
    return len(pairs) == q * q


class MolsSet:
    """Pairwise-orthogonal Latin squares of one order, held as their code.

    Two words (i, j, L_1(i,j), .., L_s(i,j)) with distinct (i, j) agree
    in at most one position unless two squares superpose some ordered
    pair twice: agreeing in i or in j and in some L_t would repeat a
    symbol in a row or column of L_t.  So the squares are pairwise
    orthogonal exactly when these q^2 words form an (s+2, 2)_q MDS code,
    and one MDS check of that code, kept as self.code, replaces the
    pairwise comparison.  The code is all the set keeps.
    """

    def __init__(self, order, squares):
        check_integers(order=order)
        squares = tuple(squares)
        for sq in squares:
            if sq.order != order:
                raise NotOrthogonal(f"square of order {sq.order} in an order-{order} set")
        # every cell is an int in 0..order-1, checked by LatinSquare
        self.order, self.code = order, Code._of(order, [
            (i, j) + tuple(sq.cells[i][j] for sq in squares)
            for i in range(order) for j in range(order)])
        if not is_mds(self.code).is_mds:
            raise NotOrthogonal("squares are not pairwise orthogonal")

    @property
    def squares(self):
        """Square t, built on each call from coordinate t+2 of the sorted
        words: the first two coordinates of an MDS (n, 2) code are an
        information set, so word i*q+j has prefix (i, j)."""
        q = self.order
        columns = tuple(zip(*self.code.sorted_words()))
        return tuple(LatinSquare(column[i * q:(i + 1) * q] for i in range(q))
                     for column in columns[2:])

    def __len__(self):
        return self.code.n - 2

    def __eq__(self, other):
        return isinstance(other, MolsSet) and other.code == self.code

    def __repr__(self):
        return f"MolsSet(order={self.order}, squares={len(self)})"


def cyclic_mols(p):
    """The p-1 squares L_a(i, j) = a*i + j mod p, pairwise orthogonal."""
    check_integers(p=p)
    if p < 2 or any(p % f == 0 for f in range(2, p)):
        raise NotPrime(f"{p} is not prime")
    # a = 0 gives j, so each word is (i, j, L_1(i, j), .., L_{p-1}(i, j));
    # built a column at a time: row i of L_a is range(p) rotated left by
    # a*i mod p (the rows are listed eagerly, so each column keeps its a)
    row = tuple(range(p))
    rotations = [row[s:] + row[:s] for s in row]
    i_column = itertools.chain.from_iterable((i,) * p for i in row)
    columns = [itertools.chain.from_iterable([rotations[a * i % p] for i in row]) for a in row]
    return code_to_mols(Code._of(p, zip(i_column, *columns)))


def mols_to_code(mols):
    """(s+2, 2)_q code with words (i, j, L_1(i,j), .., L_s(i,j))."""
    return mols.code


def code_to_mols(code):
    """Inverse bridge: coordinate t+2 of an (n, 2)_q MDS code, indexed by its
    first two coordinates, is the t-th Latin square.  The set holds the
    code itself, so the code's one MDS check is the set's.
    """
    if code.k != 2:
        raise WrongDimension(f"need k=2, got k={code.k}")
    if code.n < 3:
        raise WrongDimension(f"need n >= 3, got n={code.n}")
    require_mds(code)
    mols = MolsSet.__new__(MolsSet)
    mols.order, mols.code = code.q, code
    return mols
