"""Builders for the MDS code families used throughout the toolkit.

Covers the trivial families (repetition, universe, sum-zero), polynomial
evaluation codes over GF(q) including the singly- and doubly-extended
variants, and the two-way bridge between (n, 2)_q MDS codes and sets of
n-2 mutually orthogonal Latin squares.

Each builder refuses a code past the word or length limit before it
builds anything, the field builders taking a Field or its order.  A
field builder's code is the GF(q)-span of its generator rows, built by
codes.span_columns: row j of an evaluation code holds a^j at each point.
"""

import itertools

from .codes import Code, columns_of, is_mds, is_position, require_mds, rows_of, span_columns
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
    check_length,
    check_word_limit,
    shown,
)
from .galois import Field, prime_power


def repetition_code(n, q):
    """(n, 1)_q code {(i, .., i)}; minimum distance n."""
    check_integers(n=n, q=q)
    check_word_limit(q, 1)
    check_length(n)
    # Code refuses n < 1, and a q past the symbol limit before it runs this
    return Code._of(q, (bytes((i,)) * max(n, 0) for i in range(q)))


def universe_code(k, q):
    """(k, k)_q code consisting of every word; minimum distance 1."""
    check_integers(k=k, q=q)
    check_word_limit(q, k)
    if k < 1:
        raise InvalidParameters(f"need k >= 1, got {shown('k', k)}")
    # Code refuses a q below 2, whose words a long k would not even list
    return Code._of(q, map(bytes, itertools.product(range(q), repeat=k)) if q > 1 else ())


def sum_zero_code(k, field):
    """(k+1, k)_q code of words whose field-sum is zero; distance 2.

    Over GF(2) this is the even-weight (single-parity-check) code.  Its
    generator row j holds 1 at position j and -1 at position k.
    """
    check_integers(k=k)
    field = _field(field, k)
    if k < 1:
        raise InvalidParameters(f"need k >= 1, got {shown('k', k)}")
    return _span_code(field, [bytes(i == j for i in range(k)) + bytes((field.neg(1),))
                              for j in range(k)])


def _field(field, k):
    """A builder's Field, or its order as a Field, once q^k is within the word limit."""
    check_word_limit(getattr(field, "q", field), k)
    return field if isinstance(field, Field) else Field(field)


def _span_code(field, rows):
    """The code of every GF(q)-combination of the bytes rows: c*r sums
    d_j copies of p^j*r for c's base-p digits d_j, so each row times
    each additive generator p^j is one shift of span_columns."""
    shifts = [row.translate(field.mul_rows[field.p ** j]) for row in rows for j in range(field.m)]
    return Code._of(field.q, rows_of(span_columns(bytes(len(rows[0])), shifts, field.q)))


def rs_code(field, k, points):
    """Evaluation code: (f(a_1), .., f(a_n)) over all q^k polynomials deg < k.

    Distinct evaluation points, 1 <= k <= n <= q.  Always MDS: two distinct
    polynomials of degree < k agree on at most k-1 points.
    """
    check_integers(k=k)
    field = _field(field, k)
    points = tuple(points)
    if len(set(points)) != len(points):
        raise DuplicatePoints(f"evaluation points {shown('', points)} are not distinct")
    if not all(is_position(p, field.q) for p in points):
        raise InvalidParameters(f"points {shown('', points)} must be field elements")
    if not 1 <= k <= len(points):
        raise DimensionTooLarge(f"need 1 <= k <= n={len(points)}, got {shown('k', k)}")
    return _span_code(field, [bytes(field.pow(a, j) for a in points) for j in range(k)])


def extended_rs_code(field, k):
    """Length q+1 evaluation code: f at every field element, then the
    degree-(k-1) coefficient as the extra coordinate.
    """
    check_integers(k=k)
    field = _field(field, k)
    if not 1 <= k <= field.q:
        raise DimensionTooLarge(f"need 1 <= k <= q={field.q}, got {shown('k', k)}")
    return _span_code(field, [bytes(field.pow(a, j) for a in field.elements)
                              + bytes((j == k - 1,)) for j in range(k)])


def doubly_extended_rs(field):
    """(q+2, 3)_q code over even-order fields: f = c + b*x + e*x^2 evaluated
    at every field element, then b, then e, over all (c, b, e).

    Only exists for characteristic 2; distance q.
    """
    field = _field(field, 3)
    if field.p != 2 or field.q < 4:
        raise OddCharacteristic(f"requires characteristic 2 and q >= 4, got q={field.q}")
    return _span_code(field, [bytes(field.pow(a, j) for a in field.elements)
                              + bytes((j == 1, j == 2)) for j in range(3)])


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
        self.order, self.code = order, Code._of(order, (
            bytes((i, j, *(sq.cells[i][j] for sq in squares)))
            for i in range(order) for j in range(order)))
        if not is_mds(self.code).is_mds:
            raise NotOrthogonal("squares are not pairwise orthogonal")

    @property
    def squares(self):
        """Square t, built on each call from coordinate t+2 of the sorted
        words: the first two coordinates of an MDS (n, 2) code are an
        information set, so word i*q+j has prefix (i, j)."""
        q = self.order
        columns = columns_of(self.code.sorted_words(), self.code.n)
        return tuple(LatinSquare(column[i * q:(i + 1) * q] for i in range(q))
                     for column in columns[2:])

    def __len__(self):
        return self.code.n - 2

    def __eq__(self, other):
        return isinstance(other, MolsSet) and other.code == self.code

    def __repr__(self):
        return f"MolsSet(order={self.order}, squares={len(self)})"


def cyclic_mols(p):
    """The p-1 squares L_a(i, j) = a*i + j mod p, pairwise orthogonal.
    a = 0 gives j, so each word (i, j, L_1(i, j), .., L_{p-1}(i, j)) is
    (c1, f(0), .., f(p-1)) for f = c0 + c1*x over GF(p)."""
    check_integers(p=p)
    check_word_limit(p, 2)
    if prime_power(p) != (p, 1):
        raise NotPrime(f"{shown('', p)} is not prime")
    field = Field(p)
    return code_to_mols(_span_code(field, [bytes((j, *(field.pow(a, j) for a in field.elements)))
                                           for j in range(2)]))


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
