"""Exhaustive field axiom checks for every supported order."""

import re

import pytest

from mdskit import Field, InvalidParameters, SUPPORTED_ORDERS, UnsupportedOrder, galois
from mdskit.galois import _FIELDS, _poly_mul


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
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


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_table_entry(q):
    # q = p^m for a prime p, with one modulus coefficient per degree below m
    p, modulus = _FIELDS[q]
    f = Field(q)
    assert p >= 2 and all(p % d for d in range(2, p))
    assert (f.p, f.m) == (p, len(modulus))
    assert p ** f.m == q


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_fields_of_one_order_share_rows_that_match_poly_mul(q):
    f, g = Field(q), Field(q)
    assert f == g and hash(f) == hash(g) and f != q
    assert repr(f) == f"Field(q={q})"
    assert f.add_rows is g.add_rows and f.mul_rows is g.mul_rows and f.neg_row is g.neg_row
    p, modulus = _FIELDS[q]
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


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_mul_rows_take_about_q_polynomial_products(q, monkeypatch):
    # the rows come from the powers of one primitive element: q-1
    # products for its powers, a few more for the elements tried before
    # it, and not one product per pair of elements
    calls = []
    poly_mul = galois._poly_mul

    def counted(*args):
        calls.append(args)
        return poly_mul(*args)

    monkeypatch.setattr(galois, "_poly_mul", counted)
    assert galois._tables.__wrapped__(q) == galois._tables(q)
    assert q - 1 <= len(calls) < 2 * q


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
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
    for q in (1, 6, 10, 12, 14, 15, 100, 5.0):
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


@pytest.mark.parametrize("p", [q for q in SUPPORTED_ORDERS
                               if all(q % d for d in range(2, q))])
def test_prime_field_is_integers_mod_p(p):
    f = Field(p)
    for a in f.elements:
        for b in f.elements:
            assert f.add(a, b) == (a + b) % p
            assert f.mul(a, b) == (a * b) % p
