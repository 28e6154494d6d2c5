"""Weight and partition enumerators: closed forms against brute force."""

from itertools import product

import pytest

from mdskit import (
    BadPartition,
    Field,
    InadmissibleParameters,
    InvalidParameters,
    OutOfStatedRegime,
    PartitionSpec,
    ProfileOutOfRange,
    WeightDistribution,
    WordNotInCode,
    ZeroWordAbsent,
    distance_distribution_from,
    doubly_extended_rs,
    extended_rs_code,
    partition_distance_enumerator,
    partition_weight_enumerator_bruteforce,
    partition_weight_enumerator_formula,
    predicted_spectrum,
    repetition_code,
    rs_code,
    sum_zero_code,
    universe_code,
    weight_distribution_bruteforce,
    weight_distribution_formula,
    weight_spectrum,
)
from mdskit.spectra import closed_form_distribution


def test_weight_distribution_container():
    wd = WeightDistribution(4, {0: 1, 3: 8, 4: 0})
    assert wd[0] == 1 and wd[3] == 8
    assert wd[4] == 0 and wd[2] == 0  # zero counts are dropped / absent
    assert wd.total() == 9
    assert wd.spectrum() == {3}
    assert wd == WeightDistribution(4, {3: 8, 0: 1})
    assert wd != WeightDistribution(5, {3: 8, 0: 1})
    with pytest.raises(InvalidParameters):
        WeightDistribution(3, {4: 1})
    with pytest.raises(InvalidParameters):
        WeightDistribution(3, {2: -1})


def test_formula_frozen_values():
    wd = weight_distribution_formula(3, 2, 3)
    assert dict(wd.items()) == {0: 1, 2: 6, 3: 2}
    wd = weight_distribution_formula(4, 2, 3)
    assert wd[3] == 8 and wd[4] == 0 and wd.total() == 9
    wd = weight_distribution_formula(5, 2, 4)
    assert wd[4] == 15
    wd = weight_distribution_formula(6, 3, 4)
    assert wd[4] == 45 and wd[5] == 0 and wd[6] == 18 and wd.total() == 64


@pytest.mark.parametrize("make", [
    lambda: rs_code(Field(3), 2, [0, 1, 2]),
    lambda: rs_code(Field(5), 2, [0, 1, 2, 3]),
    lambda: rs_code(Field(7), 3, [0, 1, 2, 3, 4]),
    lambda: extended_rs_code(Field(3), 2),
    lambda: extended_rs_code(Field(4), 2),
    lambda: extended_rs_code(Field(4), 3),
    lambda: extended_rs_code(Field(5), 3),
    lambda: extended_rs_code(Field(8), 2),
    lambda: extended_rs_code(Field(9), 2),
    lambda: doubly_extended_rs(Field(4)),
    lambda: doubly_extended_rs(Field(8)),
    lambda: sum_zero_code(2, Field(2)),
    lambda: sum_zero_code(3, Field(3)),
    lambda: repetition_code(4, 5),
    lambda: universe_code(3, 3),
])
def test_formula_matches_bruteforce(make):
    code = make()
    brute = weight_distribution_bruteforce(code)
    closed = weight_distribution_formula(code.n, code.k, code.q)
    assert brute == closed
    assert brute.total() == code.q ** code.k


def test_formula_total_is_qk_even_when_unproven():
    # outside the stated regime the alternating sum must still telescope
    for (n, k, q) in [(5, 4, 3), (6, 5, 2), (7, 6, 3)]:
        with pytest.warns(OutOfStatedRegime):
            wd = weight_distribution_formula(n, k, q)
        assert wd.total() == q ** k


def test_out_of_regime_warns():
    with pytest.warns(OutOfStatedRegime):
        weight_distribution_formula(5, 4, 2)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weight_distribution_formula(4, 2, 3)  # q >= k: silent


def test_formula_rejects_bad_parameters():
    with pytest.raises(InvalidParameters):
        weight_distribution_formula(0, 0, 2)
    with pytest.raises(InvalidParameters):
        weight_distribution_formula(3, 4, 2)
    with pytest.raises(InvalidParameters):
        weight_distribution_formula(3, 2, 1)


def test_weight_spectrum_requires_zero():
    code = extended_rs_code(Field(3), 2)
    assert weight_spectrum(code) == {3}
    from mdskit import SP, apply_move
    shifted = apply_move(code, SP(0, (1, 2, 0)))
    with pytest.raises(ZeroWordAbsent):
        weight_spectrum(shifted)


def test_predicted_spectrum_cases():
    assert predicted_spectrum(5, 1, 3) == {5}
    assert predicted_spectrum(4, 4, 3) == {1, 2, 3, 4}
    assert predicted_spectrum(4, 3, 2) == {2, 4}
    assert predicted_spectrum(6, 5, 2) == {2, 4, 6}
    assert predicted_spectrum(3, 2, 3) == {2, 3}       # n < q+k-1
    assert predicted_spectrum(4, 2, 3) == {3}          # n = q+1, k=2
    assert predicted_spectrum(6, 2, 5) == {5}
    assert predicted_spectrum(6, 3, 4) == {4, 6}       # n = q+k-1, k,q > 2
    assert predicted_spectrum(7, 3, 5) == {5, 7}       # same shape, q+1 = 6 absent
    assert predicted_spectrum(6, 3, 5) == {4, 5, 6}    # n < q+k-1
    assert predicted_spectrum(11, 4, 8) == {8, 10, 11}
    assert predicted_spectrum(10, 4, 8) == {7, 8, 9, 10}


def test_predicted_spectrum_rejects_inadmissible():
    with pytest.raises(InadmissibleParameters):
        predicted_spectrum(4, 2, 2)    # n > q+1
    with pytest.raises(InadmissibleParameters):
        predicted_spectrum(5, 3, 3)    # q <= k and n > k+1
    with pytest.raises(InadmissibleParameters):
        predicted_spectrum(2, 3, 4)    # n < k
    with pytest.raises(InadmissibleParameters):
        predicted_spectrum(3, 0, 4)


def test_partition_spec_validation():
    PartitionSpec(4, [[0, 1], [2, 3]])
    with pytest.raises(BadPartition):
        PartitionSpec(4, [[0, 1], [1, 2, 3]])  # overlap
    with pytest.raises(BadPartition):
        PartitionSpec(4, [[0, 1], [3]])        # missing position
    with pytest.raises(BadPartition):
        PartitionSpec(4, [[0, 1, 2, 3], []])   # empty block


def test_pwe_frozen_values():
    code = extended_rs_code(Field(3), 2)
    spec = PartitionSpec(4, [[0, 1], [2, 3]])
    assert partition_weight_enumerator_bruteforce(code, spec, (1, 2)) == 4
    assert partition_weight_enumerator_formula(4, 2, 3, spec, (1, 2)) == 4
    assert partition_weight_enumerator_bruteforce(code, spec, (2, 2)) == 0
    assert partition_weight_enumerator_formula(4, 2, 3, spec, (2, 2)) == 0
    assert partition_weight_enumerator_formula(4, 2, 3, spec, (0, 0)) == 1
    assert partition_weight_enumerator_formula(4, 2, 3, spec, (1, 0)) == 0  # 0 < w < d


def test_pwe_brute_matches_formula_everywhere():
    code = doubly_extended_rs(Field(4))
    spec = PartitionSpec(6, [[0, 2, 4], [1, 3], [5]])
    for profile in product(range(4), range(3), range(2)):
        brute = partition_weight_enumerator_bruteforce(code, spec, profile)
        closed = partition_weight_enumerator_formula(6, 3, 4, spec, profile)
        assert brute == closed, profile


def test_pwe_profiles_sum_to_weight_distribution():
    code = extended_rs_code(Field(5), 2)
    spec = PartitionSpec(6, [[0, 1, 2], [3, 4, 5]])
    wd = weight_distribution_bruteforce(code)
    for w in range(7):
        total = sum(
            partition_weight_enumerator_formula(6, 2, 5, spec, (w1, w - w1))
            for w1 in range(max(0, w - 3), min(3, w) + 1))
        assert total == wd[w]


def test_pwe_validation():
    code = extended_rs_code(Field(3), 2)
    spec = PartitionSpec(4, [[0, 1], [2, 3]])
    with pytest.raises(ProfileOutOfRange):
        partition_weight_enumerator_bruteforce(code, spec, (3, 0))
    with pytest.raises(ProfileOutOfRange):
        partition_weight_enumerator_formula(4, 2, 3, spec, (1,))
    with pytest.raises(BadPartition):
        partition_weight_enumerator_bruteforce(code, PartitionSpec(3, [[0, 1, 2]]), (1,))


def test_distance_distribution():
    code = doubly_extended_rs(Field(4))
    center = sorted(code.words)[17]
    dist = distance_distribution_from(code, center)
    assert dict(dist.counts) == {0: 1, 4: 45, 6: 18}
    # weight-1 words are within d of zero, so they are never codewords here
    with pytest.raises(WordNotInCode):
        distance_distribution_from(code, (1, 0, 0, 0, 0, 0))


def test_partition_distance_enumerator_matches_formula():
    code = extended_rs_code(Field(3), 2)
    spec = PartitionSpec(4, [[0, 3], [1, 2]])
    for center in sorted(code.words)[:4]:
        for profile in product(range(3), range(3)):
            got = partition_distance_enumerator(code, center, spec, profile)
            want = partition_weight_enumerator_formula(4, 2, 3, spec, profile)
            assert got == want, (center, profile)
    with pytest.raises(WordNotInCode):
        partition_distance_enumerator(code, (1, 1, 1, 1), spec, (0, 0))


def test_closed_form_distribution_is_silent():
    import warnings
    for (n, k, q) in [(5, 4, 2), (4, 2, 3)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quiet = closed_form_distribution(n, k, q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert quiet == weight_distribution_formula(n, k, q)
