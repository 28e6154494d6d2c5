"""Acceptance suite: one test per criterion, one printed line each.

Every count is an exact integer; there are no tolerances anywhere.  Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The Euler search (criterion 8) extends the 9408 reduced Latin
squares of order 6 by transversals and takes 1.5-2 s (measured with
Python 3.11 on a 2-core x86-64 machine).
"""

import time
from contextlib import contextmanager
from itertools import combinations, product

import pytest

from mdskit import (
    Field,
    ResidualSpec,
    PartitionSpec,
    classify_binary,
    code_to_mols,
    cyclic_mols,
    distance_distribution_from,
    doubly_extended_rs,
    enumerate_mds,
    exists_mds,
    extended_rs_code,
    is_mds,
    mols_to_code,
    partition_weight_enumerator_bruteforce,
    partition_weight_enumerator_formula,
    predicted_spectrum,
    residual,
    rs_code,
    SearchSpec,
    SearchSpaceTooLarge,
    sum_zero_code,
    weight_distribution_bruteforce,
    weight_distribution_formula,
    weight_spectrum,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: pass")


def _battery():
    """The six reference codes.  A Reed-Solomon code over GF(4) cannot take
    five distinct evaluation points, so the (5,3)_4 entry is realized by the
    one-point extension instead."""
    return [
        rs_code(Field(3), 2, [0, 1, 2]),
        extended_rs_code(Field(3), 2),
        extended_rs_code(Field(4), 2),
        extended_rs_code(Field(4), 3),
        extended_rs_code(Field(5), 3),
        doubly_extended_rs(Field(4)),
    ]


def _two_block_partitions(n):
    """All unordered partitions of 0..n-1 into two nonempty blocks."""
    positions = list(range(n))
    for bits in range(1, 2 ** (n - 1)):
        first = [0] + [positions[i] for i in range(1, n) if bits >> (i - 1) & 1]
        second = [p for p in positions if p not in first]
        if second:
            yield first, second


def test_criterion_1_closed_form_equals_bruteforce():
    with criterion("criterion 1 (weight distribution: closed form = brute force)"):
        for code in _battery():
            brute = weight_distribution_bruteforce(code)
            closed = weight_distribution_formula(code.n, code.k, code.q)
            for w in range(code.n + 1):
                assert brute[w] == closed[w], (code.n, code.k, code.q, w)

        spot = weight_distribution_bruteforce(extended_rs_code(Field(3), 2))
        assert spot[3] == 8 and spot[4] == 0
        spot = weight_distribution_bruteforce(extended_rs_code(Field(4), 2))
        assert spot[4] == 15
        spot = weight_distribution_bruteforce(doubly_extended_rs(Field(4)))
        assert spot[4] == 45 and spot[5] == 0 and spot[6] == 18


def test_criterion_2_spectrum_theorems():
    with criterion("criterion 2 (weight spectra match the predicted sets)"):
        codes = _battery() + [sum_zero_code(k, Field(2)) for k in range(2, 6)]
        for code in codes:
            assert weight_spectrum(code) == predicted_spectrum(code.n, code.k, code.q)

        assert weight_spectrum(doubly_extended_rs(Field(4))) == {4, 6}

        for q in (3, 4, 5, 7):
            code = extended_rs_code(Field(q), 2)
            dist = weight_distribution_bruteforce(code)
            assert weight_spectrum(code) == {code.n - 1}
            assert dist[code.n - 1] == code.n * (q - 1)


def test_criterion_3_partition_enumerator():
    with criterion("criterion 3 (partition enumerator: closed form = brute force)"):
        for code in (extended_rs_code(Field(3), 2), extended_rs_code(Field(4), 3)):
            wd = weight_distribution_bruteforce(code)
            for first, second in _two_block_partitions(code.n):
                spec = PartitionSpec(code.n, [first, second])
                by_weight = {}
                for profile in product(range(len(first) + 1), range(len(second) + 1)):
                    brute = partition_weight_enumerator_bruteforce(code, spec, profile)
                    closed = partition_weight_enumerator_formula(
                        code.n, code.k, code.q, spec, profile)
                    assert brute == closed, (first, second, profile)
                    w = sum(profile)
                    by_weight[w] = by_weight.get(w, 0) + closed
                for w, total in by_weight.items():
                    assert total == wd[w], (first, second, w)


def test_criterion_4_distance_spectra():
    with criterion("criterion 4 (distance distribution from all 64 words)"):
        code = doubly_extended_rs(Field(4))
        for center in code.sorted_words():
            dist = distance_distribution_from(code, center)
            assert dict(dist.counts) == {0: 1, 4: 45, 6: 18}, center


def test_criterion_5_residual_codes():
    with criterion("criterion 5 (all 1- and 2-residual codes are MDS)"):
        start = time.perf_counter()
        for code in (doubly_extended_rs(Field(4)), extended_rs_code(Field(4), 3)):
            for t in (1, 2):
                for positions in combinations(range(code.n), t):
                    for values in product(range(code.q), repeat=t):
                        out = residual(code, ResidualSpec(positions, values))
                        assert (out.n, out.k, out.q) == (code.n - t, code.k - t, code.q)
                        assert is_mds(out).is_mds
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"residual sweep took {elapsed:.2f}s"


def test_criterion_6_binary_classification():
    with criterion("criterion 6 (binary MDS codes all classify; counts match)"):
        for n in range(1, 6):
            for k in range(1, n + 1):
                if k > 1 and n > k + 1:
                    continue  # beyond the binary length bound
                result = enumerate_mds(SearchSpec(n, k, 2, mode="collect"))
                assert result.complete
                assert result.count >= 1
                for code in result.codes:
                    classify_binary(code)  # TheoremViolation would fail here

        for (n, k, want) in [(3, 2, 1), (4, 3, 1), (5, 4, 1)]:
            result = enumerate_mds(SearchSpec(n, k, 2, require_zero=True, mode="count"))
            assert result.count == want, (n, k)


def test_criterion_7_length_bounds():
    with criterion("criterion 7 (no MDS codes beyond the length bounds)"):
        for (n, k, q) in [(4, 2, 2), (5, 2, 3), (6, 2, 4), (5, 3, 2)]:
            start = time.perf_counter()
            assert not exists_mds(n, k, q), (n, k, q)
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0, f"({n},{k})_{q} search took {elapsed:.2f}s"


def test_criterion_8_euler_officers():
    with criterion("criterion 8 (no (4,2)_6 MDS code / no orthogonal pair of order 6)"):
        start = time.perf_counter()
        assert not exists_mds(4, 2, 6)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"(4,2)_6 search took {elapsed:.2f}s"
        # the square walk alone takes 172840 nodes: a budget that stops
        # the search unfinished raises rather than claim nonexistence
        with pytest.raises(SearchSpaceTooLarge, match="^node budget 200000 exhausted"):
            exists_mds(4, 2, 6, max_nodes=200000)


def test_criterion_9_mols_bridge():
    with criterion("criterion 9 (MOLS bridge round-trips)"):
        for p in (3, 5, 7):
            mols = cyclic_mols(p)
            code = mols_to_code(mols)
            assert (code.n, code.k, code.q) == (p + 1, 2, p)
            assert is_mds(code).is_mds
            assert weight_spectrum(code) == {p}
            assert code_to_mols(code) == mols
