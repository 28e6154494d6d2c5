"""Finite-field arithmetic GF(q) for every prime power q <= MAX_SYMBOLS.

Elements are plain integers 0..q-1, so they double directly as code symbols.
For prime q the arithmetic is mod q.  For a prime power q = p^m an element
encodes a polynomial over GF(p): value = c0 + c1*p + ... + c_{m-1}*p^(m-1),
and multiplication reduces modulo the least monic irreducible polynomial
of degree m in that encoding, AES's x^8+x^4+x^3+x+1 for GF(256).  The full
add and mul tables, as rows of bytes, are built once per order and
process and shared by every Field of that order.  The add rows are
symbol_group's, the group on the symbols of any q <= 256; the mul rows
come from exp and log tables of a primitive element, whose q-1 powers
are the nonzero elements (Lidl and Niederreiter, Finite Fields, chs. 2-3).
"""

import functools
import itertools
import math

from .errors import MAX_SYMBOLS, InvalidParameters, UnsupportedOrder, shown


def prime_power(q):
    """(p, m) when the int q is p^m for a prime p, else None."""
    if q < 2:
        return None
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    m = next(m for m in itertools.count(1) if p ** m >= q)
    return (p, m) if p ** m == q else None


SUPPORTED_ORDERS = tuple(q for q in range(2, MAX_SYMBOLS + 1) if prime_power(q))


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
    generators p^0 .. p^(m-1).  At a prime power q the rows are
    Field(q).add_rows, the same objects.  Adding a generator u adds 1
    mod p to the digit at u, a rotation by u of each run of p*u symbols,
    so its row is built by slicing.  A row a in u..p*u-1 is row a-u
    translated through u's row: q translates, not q^2 sums.  Rows are
    padded only at the end, as a translate would turn padding into u."""
    p, m = prime_power(q) or (q, 1)
    places = tuple(p ** j for j in range(m))
    symbols = bytes(range(q))
    rows = [symbols]
    for u in places:
        plus = b"".join(symbols[x + u:x + p * u] + symbols[x:x + u]
                        for x in range(0, q, p * u)).ljust(256, b"\0")
        for a in range(u, p * u):
            rows.append(rows[a - u].translate(plus))
    return tuple(row.ljust(256, b"\0") for row in rows), places


def _modulus(p, m):
    """The least monic irreducible polynomial of degree m over GF(p), as its
    coefficients below x^m, least read as base-p digits low degree first:
    the first that no product of two monic factors gives, each product
    taken by _poly_mul with an all-zero modulus of length m+1, unreduced."""
    reducible = {tuple(_poly_mul([*a, 1], [*b, 1], [0] * (m + 1), p)[:m])
                 for d in range(1, m // 2 + 1)
                 for a in itertools.product(range(p), repeat=d)
                 for b in itertools.product(range(p), repeat=m - d)}
    return next(f for f in (c[::-1] for c in itertools.product(range(p), repeat=m))
                if f not in reducible)


@functools.cache
def _tables(q):
    """GF(q)'s add rows, mul rows and neg row, each padded to 256 bytes.
    g^i * g^j = g^(i+j mod q-1) for the least primitive element g, so
    the mul rows take q-1 products for g's powers, not q^2."""
    p, m = prime_power(q)
    modulus = _modulus(p, m)
    add, places = symbol_group(q)
    polys = [[v // u % p for u in places] for v in range(q)]

    def times(a, b):
        return sum(c * u for c, u in zip(_poly_mul(polys[a], polys[b], modulus, p), places))

    for g in range(1, q):
        exp = [1]
        while (x := times(exp[-1], g)) != 1:
            exp.append(x)
        if len(exp) == q - 1:
            break
    log = {x: i for i, x in enumerate(exp)}
    exp += exp
    mul = (bytes(256),) + tuple(bytes([0] + [exp[log[a] + log[b]] for b in range(1, q)])
                                .ljust(256, b"\0") for a in range(1, q))
    return add, mul, bytes(r.index(0) for r in add).ljust(256, b"\0")


class Field:
    """GF(q) with all arithmetic tabulated; immutable after construction.
    Byte b of add_rows[a], mul_rows[a] and neg_row is a + b, a * b and -b;
    each row is 256 bytes, so bytes.translate(row) applies it to every
    symbol at once.  Every Field of one order shares these rows."""

    def __init__(self, q):
        if type(q) is not int or q not in SUPPORTED_ORDERS:
            raise UnsupportedOrder(f"{shown('q', q)} is not a supported prime power")
        self.q = q
        self.p, self.m = prime_power(q)
        self.add_rows, self.mul_rows, self.neg_row = _tables(q)

    @property
    def elements(self):
        return range(self.q)

    def _element(self, a):
        """a, checked: the rows are padded past q with zeros."""
        if not (type(a) is int and 0 <= a < self.q):
            raise InvalidParameters(f"{shown('', a)} is not an element of GF({self.q})")
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
        # a^(q-1) = 1 for a != 0 (Lagrange), and 0^e = 0 for e > 0
        for _ in range(e % (self.q - 1) if a else min(e, 1)):
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
