"""Finite-field arithmetic GF(q) for small prime powers.

Elements are plain integers 0..q-1, so they double directly as code symbols.
For prime q the arithmetic is mod q.  For a prime power q = p^m an element
encodes a polynomial over GF(p): value = c0 + c1*p + ... + c_{m-1}*p^(m-1),
and multiplication reduces modulo a fixed irreducible polynomial, so the
encoding is identical across runs.  Full q x q tables are precomputed at
construction (q <= 27 keeps this trivial).
"""

import itertools

from .errors import UnsupportedOrder

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


def _digits(value, p, m):
    out = []
    for _ in range(m):
        out.append(value % p)
        value //= p
    return out


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


class Field:
    """GF(q) with all arithmetic tabulated; immutable after construction."""

    def __init__(self, q):
        if q not in SUPPORTED_ORDERS:
            raise UnsupportedOrder(f"q={q} is not a supported prime power")
        self.q = q
        p, modulus = _FIELDS[q]
        m = len(modulus)
        self.p, self.m = p, m
        polys = [_digits(v, p, m) for v in range(q)]
        self._add = [
            [sum(((ai + bi) % p) * p**i for i, (ai, bi) in enumerate(zip(a, b)))
             for b in polys]
            for a in polys
        ]
        self._mul = [
            [sum(ci * p**i for i, ci in enumerate(_poly_mul(a, b, modulus, p)))
             for b in polys]
            for a in polys
        ]

        self._neg = [next(b for b in range(q) if self._add[a][b] == 0)
                     for a in range(q)]
        self._inv = [None] + [next(b for b in range(1, q) if self._mul[a][b] == 1)
                              for a in range(1, q)]

    @property
    def elements(self):
        return range(self.q)

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        for _ in range(e):
            r = self._mul[r][a]
        return r

    def poly_eval(self, coeffs, x):
        """Evaluate c0 + c1*x + c2*x^2 + ... by Horner's rule."""
        r = 0
        for c in reversed(coeffs):
            r = self._add[self._mul[r][x]][c]
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
