"""Builders for the MDS code families used throughout the toolkit.

Covers the trivial families (repetition, universe, sum-zero), polynomial
evaluation codes over GF(q) including the singly- and doubly-extended
variants, and the two-way bridge between (n, 2)_q MDS codes and sets of
n-2 mutually orthogonal Latin squares.
"""

import itertools

from .codes import Code, is_mds, require_mds
from .errors import (
    DimensionTooLarge,
    DuplicatePoints,
    InvalidParameters,
    NotLatinSquare,
    NotOrthogonal,
    NotPrime,
    OddCharacteristic,
    WrongDimension,
)


def repetition_code(n, q):
    """(n, 1)_q code {(i, .., i)}; minimum distance n."""
    return Code(q, [(i,) * n for i in range(q)])


def universe_code(k, q):
    """(k, k)_q code consisting of every word; minimum distance 1."""
    if k < 1:
        raise InvalidParameters(f"need k >= 1, got k={k}")
    return Code(q, itertools.product(range(q), repeat=k))


def sum_zero_code(k, field):
    """(k+1, k)_q code of words whose field-sum is zero; distance 2.

    Over GF(2) this is the even-weight (single-parity-check) code.
    """
    if k < 1:
        raise InvalidParameters(f"need k >= 1, got k={k}")
    words = []
    for prefix in itertools.product(field.elements, repeat=k):
        total = 0
        for s in prefix:
            total = field.add(total, s)
        words.append(prefix + (field.neg(total),))
    return Code(field.q, words)


def rs_code(field, k, points):
    """Evaluation code: (f(a_1), .., f(a_n)) over all q^k polynomials deg < k.

    Distinct evaluation points, 1 <= k <= n <= q.  Always MDS: two distinct
    polynomials of degree < k agree on at most k-1 points.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise DuplicatePoints(f"evaluation points {points} are not distinct")
    if any(p not in field.elements for p in points):
        raise InvalidParameters(f"points {points} must be field elements")
    if not 1 <= k <= len(points):
        raise DimensionTooLarge(f"need 1 <= k <= n={len(points)}, got k={k}")
    words = [tuple(field.poly_eval(coeffs, a) for a in points)
             for coeffs in field.all_polynomials(k)]
    return Code(field.q, words)


def extended_rs_code(field, k):
    """Length q+1 evaluation code: f at every field element, then the
    degree-(k-1) coefficient as the extra coordinate.
    """
    if not 1 <= k <= field.q:
        raise DimensionTooLarge(f"need 1 <= k <= q={field.q}, got k={k}")
    words = [tuple(field.poly_eval(coeffs, a) for a in field.elements) + (coeffs[k - 1],)
             for coeffs in field.all_polynomials(k)]
    return Code(field.q, words)


def doubly_extended_rs(field):
    """(q+2, 3)_q code over even-order fields: f = c + b*x + e*x^2 evaluated
    at every field element, then b, then e, over all (c, b, e).

    Only exists for characteristic 2; distance q.
    """
    if field.p != 2 or field.q < 4:
        raise OddCharacteristic(f"requires characteristic 2 and q >= 4, got q={field.q}")
    words = []
    for c, b, e in itertools.product(field.elements, repeat=3):
        evals = tuple(field.add(c, field.add(field.mul(b, a),
                                             field.mul(e, field.mul(a, a))))
                      for a in field.elements)
        words.append(evals + (b, e))
    return Code(field.q, words)


# ------------------------------------------------------- Latin squares

class LatinSquare:
    """q x q array whose rows and columns are permutations of 0..q-1."""

    def __init__(self, cells):
        cells = tuple(tuple(row) for row in cells)
        q = len(cells)
        full = set(range(q))
        for row in cells:
            if len(row) != q or set(row) != full:
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
    """Pairwise-orthogonal Latin squares of one order; verified eagerly.

    Two words (i, j, L_1(i,j), .., L_s(i,j)) with distinct (i, j) agree
    in at most one position unless two squares superpose some ordered
    pair twice: agreeing in i or in j and in some L_t would repeat a
    symbol in a row or column of L_t.  So the squares are pairwise
    orthogonal exactly when these q^2 words form an (s+2, 2)_q MDS code,
    and one MDS check of that code, kept as self.code, replaces the
    pairwise comparison.
    """

    def __init__(self, order, squares):
        squares = tuple(squares)
        for sq in squares:
            if sq.order != order:
                raise NotOrthogonal(f"square of order {sq.order} in an order-{order} set")
        code = Code(order, [(i, j) + tuple(sq.cells[i][j] for sq in squares)
                            for i in range(order) for j in range(order)])
        if not is_mds(code).is_mds:
            raise NotOrthogonal("squares are not pairwise orthogonal")
        self.order = order
        self.squares = squares
        self.code = code

    @classmethod
    def _of_mds_code(cls, code, squares):
        """The set of squares read from code, an (n, 2)_q code already
        proved MDS, kept as self.code without a second scan."""
        mols = cls.__new__(cls)
        mols.order, mols.squares, mols.code = code.q, tuple(squares), code
        return mols

    def __len__(self):
        return len(self.squares)

    def __eq__(self, other):
        return (isinstance(other, MolsSet) and other.order == self.order
                and other.squares == self.squares)

    def __repr__(self):
        return f"MolsSet(order={self.order}, squares={len(self.squares)})"


def cyclic_mols(p):
    """The p-1 squares L_a(i, j) = a*i + j mod p, pairwise orthogonal."""
    if p < 2 or any(p % f == 0 for f in range(2, p)):
        raise NotPrime(f"{p} is not prime")
    squares = [LatinSquare([[(a * i + j) % p for j in range(p)] for i in range(p)])
               for a in range(1, p)]
    return MolsSet(p, squares)


def mols_to_code(mols):
    """(s+2, 2)_q code with words (i, j, L_1(i,j), .., L_s(i,j))."""
    return mols.code


def code_to_mols(code):
    """Inverse bridge: coordinate t+2 of an (n, 2)_q MDS code, indexed by its
    first two coordinates, is the t-th Latin square.  The code is the
    set's code word for word, so its one MDS check stands for both.
    """
    if code.k != 2:
        raise WrongDimension(f"need k=2, got k={code.k}")
    if code.n < 3:
        raise WrongDimension(f"need n >= 3, got n={code.n}")
    require_mds(code)
    q = code.q
    by_prefix = {w[:2]: w for w in code.words}
    squares = []
    for t in range(code.n - 2):
        cells = [[by_prefix[i, j][t + 2] for j in range(q)] for i in range(q)]
        squares.append(LatinSquare(cells))
    return MolsSet._of_mds_code(code, squares)
