"""Field checks: exhaustive at the orders up to 27 whose moduli are
pinned below, and bounded but exact at every other order up to 256."""

import random
import re

import pytest

from mdskit import Field, InvalidParameters, SUPPORTED_ORDERS, UnsupportedOrder, galois
from mdskit.galois import _modulus, _poly_mul, prime_power

# characteristic p and modulus per order, low-degree coefficients first,
# x^m implicit; the field's encoding, so every table built from them is
# pinned too.  The exhaustive tests run at these orders.
#   4: x^2+x+1   8: x^3+x+1     9: x^2+1
#  16: x^4+x+1  25: x^2+2      27: x^3+2x+1
PINNED = {
    2: (2, (0,)), 3: (3, (0,)), 4: (2, (1, 1)), 5: (5, (0,)), 7: (7, (0,)),
    8: (2, (1, 1, 0)), 9: (3, (1, 0)), 11: (11, (0,)), 13: (13, (0,)),
    16: (2, (1, 1, 0, 0)), 25: (5, (2, 0)), 27: (3, (1, 2, 0)),
    # x^8+x^4+x^3+x+1, the AES polynomial (FIPS 197)
    256: (2, (1, 1, 0, 1, 1, 0, 0, 0)),
}
SMALL_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)
LARGE_ORDERS = tuple(q for q in SUPPORTED_ORDERS if q not in SMALL_ORDERS)


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, p))


def test_supported_orders_are_the_prime_powers_up_to_256():
    primes = [p for p in range(2, 300) if _is_prime(p)]
    powers = {p ** m: (p, m) for p in primes for m in range(1, 9) if p ** m < 300}
    for q in range(-3, 300):
        assert prime_power(q) == powers.get(q)
    assert SUPPORTED_ORDERS == tuple(sorted(q for q in powers if q <= 256))
    assert len(SUPPORTED_ORDERS) == 70
    assert SMALL_ORDERS == tuple(q for q in PINNED if q <= 27)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms(q):
    f = Field(q)
    els = list(f.elements)
    assert els == list(range(q))

    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1

    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)

    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_table_entry(q):
    # q = p^m for a prime p, with one modulus coefficient per degree below m
    p, modulus = PINNED[q]
    f = Field(q)
    assert _is_prime(p)
    assert (f.p, f.m) == prime_power(q) == (p, len(modulus))
    assert p ** f.m == q
    assert _modulus(p, f.m) == modulus


def test_gf256_takes_the_aes_polynomial():
    p, modulus = PINNED[256]
    assert _modulus(*prime_power(256)) == modulus
    # the products worked in FIPS 197, sections 4.2 and 4.2.1
    f = Field(256)
    assert f.mul(0x57, 0x83) == 0xC1 and f.mul(0x57, 0x13) == 0xFE


def _least_irreducible(p, m):
    """The least monic irreducible of degree m over GF(p) by trial
    division, read as base-p digits low degree first: a monic f of degree
    m is irreducible when no monic g of degree 1..m//2 divides it."""
    def digits(v, d):
        return [v // p ** j % p for j in range(d)]

    def divides(g, f):
        f = f[:]
        for top in range(len(f) - 1, len(g) - 2, -1):
            c = f[top]          # g is monic, so c is the quotient's digit
            for j, gj in enumerate(g):
                f[top - len(g) + 1 + j] = (f[top - len(g) + 1 + j] - c * gj) % p
        return not any(f)

    for v in range(p ** m):
        f = digits(v, m) + [1]
        if not any(divides(digits(u, d) + [1], f)
                   for d in range(1, m // 2 + 1) for u in range(p ** d)):
            return tuple(f[:m])


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_modulus_is_the_least_irreducible_by_trial_division(q):
    p, m = prime_power(q)
    assert _modulus(p, m) == _least_irreducible(p, m)


@pytest.mark.parametrize("q", LARGE_ORDERS)
def test_large_field_rows_have_no_zero_divisors_and_match_poly_mul(q):
    # exhaustive products are O(q^2) and the axioms O(q^3): here each
    # nonzero mul row is a permutation of the nonzero elements, and
    # seeded pairs of elements agree with _poly_mul under the modulus
    f = Field(q)
    nonzero = set(range(1, q))
    assert f.mul_rows[0] == bytes(256)
    for a in range(1, q):
        row = f.mul_rows[a]
        assert row[0] == 0 and set(row[1:q]) == nonzero and not any(row[q:])
    p, m = prime_power(q)
    modulus = _modulus(p, m)

    def digits(v):
        return [v // p ** i % p for i in range(m)]

    rng = random.Random(q)
    for _ in range(200):
        a, b = rng.randrange(q), rng.randrange(q)
        product = sum(c * p ** i for i, c in enumerate(_poly_mul(digits(a), digits(b), modulus, p)))
        assert f.mul(a, b) == product


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_fields_of_one_order_share_rows_that_match_poly_mul(q):
    f, g = Field(q), Field(q)
    assert f == g and hash(f) == hash(g) and f != q
    assert repr(f) == f"Field(q={q})"
    assert f.add_rows is g.add_rows and f.mul_rows is g.mul_rows and f.neg_row is g.neg_row
    p, modulus = PINNED[q]
    m = len(modulus)

    def value(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def digits(v):
        return [v // p**i % p for i in range(m)]

    for a in f.elements:
        da = digits(a)
        mul = [value(_poly_mul(da, digits(b), modulus, p)) for b in f.elements]
        add = [value((x + y) % p for x, y in zip(da, digits(b))) for b in f.elements]
        assert list(f.mul_rows[a][:q]) == mul
        assert list(f.add_rows[a][:q]) == add
        assert f.add_rows[a][f.neg_row[a]] == 0
        # each row is also a bytes.translate table over every byte
        assert len(f.add_rows[a]) == len(f.mul_rows[a]) == 256
    assert len(f.neg_row) == 256


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_mul_rows_take_about_q_polynomial_products(q, monkeypatch):
    # the rows come from the powers of one primitive element: q-1
    # products for its powers, a few more for the elements tried before
    # it, and not one product per pair of elements; the modulus search's
    # products, taken modulo x^(m+1), are left out of the count
    m = prime_power(q)[1]
    calls = []
    poly_mul = galois._poly_mul

    def counted(*args):
        if len(args[2]) == m:
            calls.append(args)
        return poly_mul(*args)

    monkeypatch.setattr(galois, "_poly_mul", counted)
    assert galois._tables.__wrapped__(q) == galois._tables(q)
    assert q - 1 <= len(calls) < 2 * q


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_characteristic_and_unit_group(q):
    f = Field(q)
    one_sum = 0
    for _ in range(f.p):
        one_sum = f.add(one_sum, 1)
    assert one_sum == 0
    for a in range(1, q):
        assert f.pow(a, q - 1) == 1
        assert f.pow(a, -1) == f.inv(a)


def test_subtraction_and_pow():
    f = Field(8)
    for a in f.elements:
        for b in f.elements:
            assert f.add(f.sub(a, b), b) == a
    assert f.pow(0, 0) == 1
    assert f.pow(3, 0) == 1


HUGE = 10 ** 300


@pytest.mark.parametrize("q", [13, 16])
def test_pow_takes_a_long_exponent_mod_q_minus_1(q):
    # a loop of e steps would never return at e = 10^300; the oracle is
    # square-and-multiply through Field.mul
    f = Field(q)

    def by_squares(a, e):
        r = 1
        while e:
            if e & 1:
                r = f.mul(r, a)
            a, e = f.mul(a, a), e >> 1
        return r

    exponents = [0, 1, q - 1, q, HUGE, HUGE + 1, 3 * HUGE + 7]
    for a in f.elements:
        for e in exponents:
            assert f.pow(a, e) == by_squares(a, e)
            if a:
                assert f.pow(a, -e) == by_squares(f.inv(a), e)
        if q == 13:
            assert [f.pow(a, e) for e in exponents] == [pow(a, e, 13) for e in exponents]
    assert f.pow(0, HUGE) == 0 and f.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -HUGE)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)


@pytest.mark.parametrize("call, bad", [
    (lambda f: f.add(1, 9), 9),
    (lambda f: f.mul(3, 200), 200),
    (lambda f: f.add(-1, 2), -1),
    (lambda f: f.sub(1, 4), 4),
    (lambda f: f.sub(4, 1), 4),
    (lambda f: f.neg(7), 7),
    (lambda f: f.inv(4), 4),
    (lambda f: f.pow(4, 0), 4),
    (lambda f: f.pow(5, -1), 5),
    (lambda f: f.poly_eval((), 4), 4),
    (lambda f: f.poly_eval((1, 9), 2), 9),
    (lambda f: f.add(1.0, 2), 1.0),
    (lambda f: f.add(True, 1), True),
    (lambda f: f.pow(2, 1.5), "exponent 1.5 is not an integer"),
    (lambda f: f.pow(2, True), "exponent True is not an integer"),
])
def test_arithmetic_refuses_non_elements(call, bad):
    # the rows are padded past q, so an unchecked operand would read a
    # zero; a float exponent would reach range() and raise TypeError
    message = bad if isinstance(bad, str) else f"{bad!r} is not an element of GF(4)"
    with pytest.raises(InvalidParameters, match=f"^{re.escape(message)}$"):
        call(Field(4))


def test_unsupported_orders_rejected():
    for q in (-4, 0, 1, 6, 10, 12, 14, 15, 100, 5.0, 255, 257, 289, 512, True):
        with pytest.raises(UnsupportedOrder):
            Field(q)


def test_poly_eval_matches_naive():
    f = Field(9)
    coeffs = [2, 5, 7]  # c0 + c1 x + c2 x^2
    for x in f.elements:
        naive = 0
        for i, c in enumerate(coeffs):
            naive = f.add(naive, f.mul(c, f.pow(x, i)))
        assert f.poly_eval(coeffs, x) == naive


def test_all_polynomials_cover_every_tuple():
    f = Field(3)
    polys = list(f.all_polynomials(2))
    assert len(polys) == 9
    assert len(set(map(tuple, polys))) == 9
    assert all(len(p) == 2 for p in polys)


@pytest.mark.parametrize("p", [q for q in SMALL_ORDERS if _is_prime(q)])
def test_prime_field_is_integers_mod_p(p):
    f = Field(p)
    for a in f.elements:
        for b in f.elements:
            assert f.add(a, b) == (a + b) % p
            assert f.mul(a, b) == (a * b) % p
