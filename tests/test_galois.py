"""Exhaustive field axiom checks for every supported order."""

import pytest

from mdskit import Field, SUPPORTED_ORDERS, UnsupportedOrder
from mdskit.galois import _FIELDS


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


def test_unsupported_orders_rejected():
    for q in (1, 6, 10, 12, 14, 15, 100):
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
