"""Weight and partition enumerators: closed forms against exhaustive
counts, and the bit-sliced counts against per-word oracles."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdskit import (
    SP,
    BadPartition,
    Code,
    Field,
    InadmissibleParameters,
    InvalidParameters,
    OutOfStatedRegime,
    PartitionSpec,
    ProfileOutOfRange,
    WeightDistribution,
    WordNotInCode,
    ZeroWordAbsent,
    apply_moves,
    distance_distribution_from,
    doubly_extended_rs,
    extended_rs_code,
    hamming_distance,
    is_mds,
    length_bound,
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
from mdskit.spectra import _distances_from, _profile_count, closed_form_distribution


def test_weight_distribution_container():
    wd = WeightDistribution(4, {0: 1, 3: 8, 4: 0})
    assert wd[0] == 1 and wd[3] == 8
    assert wd[4] == 0 and wd[2] == 0  # zero counts are dropped / absent
    assert wd.total() == 9
    assert wd.spectrum() == {3}
    assert wd == WeightDistribution(4, {3: 8, 0: 1})
    assert wd != WeightDistribution(5, {3: 8, 0: 1})
    assert repr(wd) == "WeightDistribution(n=4, {0: 1, 3: 8})"
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
    with pytest.raises(InadmissibleParameters):        # same shape at odd q: n > q+k-2
        predicted_spectrum(7, 3, 5)
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


def test_predicted_spectrum_is_the_closed_form_support():
    # every MDS code containing zero has the closed-form distribution, so
    # its nonzero weights are an oracle for the main theorem and its
    # remaining case n = q+k-1, on every admissible shape of the grid
    shapes = 0
    for q in range(2, 33):
        for k in range(1, 12):
            for n in range(k, (k + 12 if k == 1 else length_bound(k, q)) + 1):
                assert (predicted_spectrum(n, k, q)
                        == closed_form_distribution(n, k, q).spectrum()), (n, k, q)
                shapes += 1
    assert shapes == 5398


def test_partition_spec_validation():
    spec = PartitionSpec(4, [[0, 1], [2, 3]])
    assert len(spec) == 2
    assert repr(spec) == "PartitionSpec(n=4, sizes=(2, 2))"
    with pytest.raises(InvalidParameters, match="n=4.0 is not an integer"):
        PartitionSpec(4.0, [[0, 1], [2, 3]])
    with pytest.raises(BadPartition):
        PartitionSpec(4, [[0, 1], [1, 2, 3]])  # overlap
    with pytest.raises(BadPartition):
        PartitionSpec(4, [[0, 1], [3]])        # missing position
    with pytest.raises(BadPartition):
        PartitionSpec(4, [[0, 1, 2, 3], []])   # empty block
    with pytest.raises(BadPartition):
        PartitionSpec(4, [[0, 1], [2, 3.0]])   # 3.0 == 3, but is no position


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
    with pytest.raises(ProfileOutOfRange):
        partition_weight_enumerator_bruteforce(code, spec, (1.0, 1))  # a float count
    with pytest.raises(ProfileOutOfRange):
        partition_weight_enumerator_formula(4, 2, 3, spec, (1.0, 1))
    with pytest.raises(BadPartition):
        partition_weight_enumerator_bruteforce(code, PartitionSpec(3, [[0, 1, 2]]), (1,))
    with pytest.raises(BadPartition):
        partition_weight_enumerator_formula(5, 2, 3, spec, (1, 1))


def test_distance_distribution():
    code = doubly_extended_rs(Field(4))
    center = sorted(code.words)[17]
    dist = distance_distribution_from(code, center)
    assert dict(dist.counts) == {0: 1, 4: 45, 6: 18}
    # weight-1 words are within d of zero, so they are never codewords here
    with pytest.raises(WordNotInCode):
        distance_distribution_from(code, (1, 0, 0, 0, 0, 0))
    with pytest.raises(WordNotInCode):
        distance_distribution_from(code, tuple(map(float, center)))


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
    with pytest.raises(WordNotInCode):
        partition_distance_enumerator(code, tuple(map(float, center)), spec, (0, 0))


def test_closed_form_distribution_is_silent():
    import warnings
    for (n, k, q) in [(5, 4, 2), (4, 2, 3)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quiet = closed_form_distribution(n, k, q)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert quiet == weight_distribution_formula(n, k, q)


# ------------------------------------------- per-word oracles


def oracle_distances(code, center):
    """Distances from center, one hamming_distance per codeword."""
    return WeightDistribution(
        code.n, Counter(hamming_distance(w, center) for w in code.words))


def oracle_profiles(code, center, spec):
    """Codewords per profile: how many positions of each block differ
    from center, one word at a time."""
    return Counter(tuple(sum(w[p] != center[p] for p in block) for block in spec.blocks)
                   for w in code.words)


MAX_WORDS = 256


@st.composite
def word_codes(draw):
    """A code over q <= 16 with at most MAX_WORDS words: q^k random
    distinct words, or an RS code on random points with a random
    relabeling of some positions.  The first is rarely MDS, the second
    always is; either may or may not contain zero."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16]))
    k_max = max(k for k in range(9) if q ** k <= MAX_WORDS)
    if draw(st.booleans()):
        field = Field(q)
        n = draw(st.integers(1, min(q, 8)))
        k = draw(st.integers(1, min(n, k_max)))
        points = draw(st.permutations(field.elements))[:n]
        relabel = draw(st.lists(st.tuples(st.integers(0, n - 1), st.permutations(range(q))),
                                max_size=2))
        return apply_moves(rs_code(field, k, points), [SP(p, perm) for p, perm in relabel])
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n, k_max)))
    rng = draw(st.randoms(use_true_random=False))
    return Code(q, [tuple(i // q ** p % q for p in range(n))
                    for i in rng.sample(range(q ** n), q ** k)])


@st.composite
def partitions(draw, n):
    """1 to 4 blocks (at most n) of a random order of 0..n-1."""
    blocks = draw(st.integers(1, min(4, n)))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.permutations(range(1, n)))[:blocks - 1])
    return PartitionSpec(n, [order[a:b] for a, b in zip([0] + cuts, cuts + [n])])


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_bit_sliced_counts_match_per_word_oracles(data):
    code = data.draw(word_codes())
    n, q, zero = code.n, code.q, code.zero
    codeword = data.draw(st.sampled_from(code.sorted_words()))
    word = tuple(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    spec = data.draw(partitions(n))
    profiles = list(product(*(range(size + 1) for size in spec.sizes)))

    assert weight_distribution_bruteforce(code) == oracle_distances(code, zero)
    if code.contains_zero():
        assert weight_spectrum(code) == {t for t in oracle_distances(code, zero).counts if t}
    else:
        with pytest.raises(ZeroWordAbsent):
            weight_spectrum(code)
    by_weight = oracle_profiles(code, zero, spec)
    for profile in profiles:
        assert partition_weight_enumerator_bruteforce(code, spec, profile) == by_weight[profile]

    for center in (codeword, word):
        assert _distances_from(code, center) == oracle_distances(code, center)
        by_distance = oracle_profiles(code, center, spec)
        for profile in profiles:
            assert _profile_count(code, center, spec, profile) == by_distance[profile]
        if center in code:
            assert distance_distribution_from(code, center) == oracle_distances(code, center)
            for profile in profiles:
                assert (partition_distance_enumerator(code, center, spec, profile)
                        == by_distance[profile])
        else:
            with pytest.raises(WordNotInCode):
                distance_distribution_from(code, center)
            with pytest.raises(WordNotInCode):
                partition_distance_enumerator(code, center, spec, profiles[0])


def test_one_bit_sliced_view_per_code(symbol_masks_calls):
    code = doubly_extended_rs(Field(4))
    spec = PartitionSpec(6, [[0, 2, 4], [1, 3], [5]])
    center = sorted(code.words)[17]
    assert is_mds(code).is_mds
    assert weight_distribution_bruteforce(code).total() == 64
    assert weight_spectrum(code) == {4, 6}
    assert distance_distribution_from(code, center).total() == 64
    profiles = list(product(range(4), range(3), range(2)))
    assert sum(partition_weight_enumerator_bruteforce(code, spec, profile)
               for profile in profiles) == 64
    assert sum(partition_distance_enumerator(code, center, spec, profile)
               for profile in profiles) == 64
    assert len(symbol_masks_calls) == 1

    again = doubly_extended_rs(Field(4))
    assert again == code
    assert weight_spectrum(again) == weight_spectrum(code)
    assert len(symbol_masks_calls) == 2
