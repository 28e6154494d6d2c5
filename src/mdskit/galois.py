"""Finite-field arithmetic GF(q) for small prime powers.

Elements are plain integers 0..q-1, so they double directly as code symbols.
For prime q the arithmetic is mod q.  For a prime power q = p^m an element
encodes a polynomial over GF(p): value = c0 + c1*p + ... + c_{m-1}*p^(m-1),
and multiplication reduces modulo a fixed irreducible polynomial, so the
encoding is identical across runs.  The full add and mul tables, as rows
of bytes, are built once per order and process and shared by every
Field of that order (q <= 27 keeps this trivial).  The add rows are
symbol_group's, the group on the symbols of any q <= 256.
"""

import functools
import itertools

from .errors import InvalidParameters, UnsupportedOrder

# Characteristic p and monic irreducible modulus per supported order
# q = p^m, low-degree coefficients first; the leading coefficient x^m is
# implicit, so m is the modulus length.  A prime order uses x, i.e. (0,),
# which leaves the degree-0 products as they are, mod p.
#   4: x^2+x+1   8: x^3+x+1     9: x^2+1
#  16: x^4+x+1  25: x^2+2      27: x^3+2x+1
_FIELDS = {
    2: (2, (0,)), 3: (3, (0,)), 4: (2, (1, 1)), 5: (5, (0,)), 7: (7, (0,)),
    8: (2, (1, 1, 0)), 9: (3, (1, 0)), 11: (11, (0,)), 13: (13, (0,)),
    16: (2, (1, 1, 0, 0)), 25: (5, (2, 0)), 27: (3, (1, 2, 0)),
}

SUPPORTED_ORDERS = tuple(_FIELDS)


def _poly_mul(a, b, modulus, p):
    """Multiply two coefficient lists and reduce mod the monic modulus."""
    m = len(modulus)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(m):
                prod[i - m + j] = (prod[i - m + j] - c * modulus[j]) % p
    return prod[:m]


@functools.cache
def symbol_group(q):
    """The abelian group on the symbols 0..q-1, for 2 <= q <= 256:
    digit-wise addition mod p when q = p^m, which is GF(q)'s addition
    whatever its modulus, and addition mod q otherwise.  Returns its add
    rows, row a holding a + b at byte b and padded to 256 bytes, and its
    generators p^0 .. p^(m-1).  At a supported order the rows are
    Field(q).add_rows, the same objects."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    places = tuple(p ** j for j in range(q.bit_length()) if p ** j < q)
    if places[-1] * p != q:
        p, places = q, (1,)

    def add(a, b):
        return sum((a // u + b // u) % p * u for u in places)

    rows = tuple(bytes(add(a, b) for b in range(q)).ljust(256, b"\0") for a in range(q))
    return rows, places


@functools.cache
def _tables(q):
    """GF(q)'s add rows, mul rows and neg row, each padded to 256 bytes."""
    p, modulus = _FIELDS[q]
    add, places = symbol_group(q)
    polys = [[v // u % p for u in places] for v in range(q)]

    def row(values):
        return bytes(sum(c * u for c, u in zip(cs, places)) for cs in values).ljust(256, b"\0")

    mul = tuple(row(_poly_mul(a, b, modulus, p) for b in polys) for a in polys)
    return add, mul, bytes(r.index(0) for r in add).ljust(256, b"\0")


class Field:
    """GF(q) with all arithmetic tabulated; immutable after construction.
    Byte b of add_rows[a], mul_rows[a] and neg_row is a + b, a * b and -b;
    each row is 256 bytes, so bytes.translate(row) applies it to every
    symbol at once.  Every Field of one order shares these rows."""

    def __init__(self, q):
        if type(q) is not int or q not in SUPPORTED_ORDERS:
            raise UnsupportedOrder(f"q={q} is not a supported prime power")
        self.q = q
        self.p, self.m = _FIELDS[q][0], len(_FIELDS[q][1])
        self.add_rows, self.mul_rows, self.neg_row = _tables(q)

    @property
    def elements(self):
        return range(self.q)

    def _element(self, a):
        """a, checked: the rows are padded past q with zeros."""
        if not (type(a) is int and 0 <= a < self.q):
            raise InvalidParameters(f"{a!r} is not an element of GF({self.q})")
        return a

    def add(self, a, b):
        return self.add_rows[self._element(a)][self._element(b)]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.mul_rows[self._element(a)][self._element(b)]

    def neg(self, a):
        return self.neg_row[self._element(a)]

    def inv(self, a):
        if self._element(a) == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.mul_rows[a].index(1)

    def pow(self, a, e):
        self._element(a)
        if type(e) is not int:
            raise InvalidParameters(f"exponent {e!r} is not an integer")
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        for _ in range(e):
            r = self.mul_rows[r][a]
        return r

    def poly_eval(self, coeffs, x):
        """Evaluate c0 + c1*x + c2*x^2 + ... by Horner's rule."""
        self._element(x)
        r = 0
        for c in reversed(coeffs):
            r = self.add(self.mul(r, x), c)
        return r

    def all_polynomials(self, k):
        """All q^k coefficient tuples (c0..c_{k-1}), lexicographic order."""
        return itertools.product(self.elements, repeat=k)

    def __repr__(self):
        return f"Field(q={self.q})"

    def __eq__(self, other):
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self):
        return hash(("Field", self.q))
