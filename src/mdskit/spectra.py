"""Weight and distance spectra: exhaustive counts and closed forms.

For an (n, k)_q MDS code containing the zero word, the number of words of
weight w >= d (d = n-k+1) has the exact closed form

    E(w) = (q-1) * C(n, w) * sum_{j=0}^{w-d} (-1)^j * C(w-1, j) * q^(w-d-j)

and the same alternating sum, with C(n, w) replaced by a product of
per-block binomials, counts words with a prescribed weight profile over a
partition of the coordinates.  Everything here is exact integer arithmetic;
the alternating sum must cancel exactly, so no floats are ever involved.

Each closed form is paired with an exhaustive count over the code, which
is the independent oracle the formulas are verified against.  The counts
never use the closed forms.  Every count reads codes.agreements: each
word's agreements with the center, whose columns are relabeled so that
it reads as the zero word, counted as zero bytes block by block.
Weights, from the zero word, are n - w.count(0) word by word.  Profile
counts tally the words by their agreements in each block, for one
partition and center, and the code keeps the last such tally.

The stated hypothesis of the closed forms is q >= k; evaluating them with
q < k emits an OutOfStatedRegime warning so callers can record empirical
agreement without claiming a theorem.
"""

import warnings
from collections import Counter
from math import comb

from .codes import agreements, is_position, length_bound
from .errors import (
    BadPartition,
    InadmissibleParameters,
    InvalidParameters,
    OutOfStatedRegime,
    ProfileOutOfRange,
    WordNotInCode,
    ZeroWordAbsent,
    check_integers,
    shown,
)


class WeightDistribution:
    """Counts per weight (or per distance); zero counts are dropped."""

    def __init__(self, n, counts):
        clean = {}
        for w in sorted(counts):
            c = counts[w]
            if not (0 <= w <= n):
                raise InvalidParameters(f"weight {w} outside 0..{n}")
            if c < 0:
                raise InvalidParameters(f"negative count at weight {w}")
            if c:
                clean[w] = c
        self.n = n
        self.counts = clean

    def __getitem__(self, w):
        return self.counts.get(w, 0)

    def __eq__(self, other):
        return (isinstance(other, WeightDistribution)
                and other.n == self.n and other.counts == self.counts)

    def __repr__(self):
        return f"WeightDistribution(n={self.n}, {self.counts})"

    def items(self):
        return list(self.counts.items())

    def total(self):
        return sum(self.counts.values())

    def spectrum(self):
        """The set of attained nonzero weights."""
        return {w for w in self.counts if w > 0}


def _distances_from(code, center):
    """Counts of codewords at each distance from center, which need not
    be a codeword: a word at distance t agrees with center in exactly
    n-t positions."""
    n = code.n
    (agree,) = agreements(code.words, n, center, [range(n)])
    return WeightDistribution(n, {n - a: c for a, c in Counter(agree).items()})


def weight_distribution_bruteforce(code):
    """Exact weight counts over every codeword."""
    return _distances_from(code, code.zero)


def _alternating_sum(w, d, q):
    """sum_{j=0}^{w-d} (-1)^j C(w-1, j) q^(w-d-j), exact."""
    return sum((-1) ** j * comb(w - 1, j) * q ** (w - d - j)
               for j in range(w - d + 1))


def _check_mds_params(n, k, q):
    check_integers(n=n, k=k, q=q)
    if q < 2 or n < 1 or not 0 <= k <= n:
        raise InvalidParameters(
            f"bad MDS parameters ({shown('n', n)}, {shown('k', k)}, {shown('q', q)})")
    if q < k:
        warnings.warn(OutOfStatedRegime(
            f"closed form stated for q >= k; got {shown('q', q)} < {shown('k', k)}"))


def weight_distribution_formula(n, k, q):
    """Closed-form weight distribution of an (n, k)_q MDS code containing
    the zero word: E(0)=1, E(w)=0 below d, the alternating sum above d."""
    _check_mds_params(n, k, q)
    d = n - k + 1
    counts = {0: 1}
    for w in range(d, n + 1):
        counts[w] = (q - 1) * comb(n, w) * _alternating_sum(w, d, q)
    return WeightDistribution(n, counts)


def closed_form_distribution(n, k, q):
    """weight_distribution_formula with OutOfStatedRegime silenced, for
    callers that record the regime (q < k) in their own report."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OutOfStatedRegime)
        return weight_distribution_formula(n, k, q)


def weight_spectrum(code):
    """Set of nonzero weights attained; the code must contain the zero word."""
    if not code.contains_zero():
        raise ZeroWordAbsent("weight spectrum is defined relative to the zero word")
    return _distances_from(code, code.zero).spectrum()


def predicted_spectrum(n, k, q):
    """The provable weight spectrum of any (n, k)_q MDS code containing the
    zero word.  Case rules:

      k = 1            -> {n}
      n = k            -> {1, .., n}
      q = 2, n = k+1   -> the even weights in (1, n]
      n < q+k-1        -> {n-k+1, .., n}
      n = q+k-1, k = 2 -> {n-1}
      n = q+k-1, k,q>2 -> {n-k+1, .., n} minus {n-k+2}  (= q+1 missing)
    """
    check_integers(n=n, k=k, q=q)
    if k < 1 or n < k or q < 2:
        raise InadmissibleParameters(
            f"({shown('n', n)}, {shown('k', k)}, {shown('q', q)}) is not a code shape")
    if n > length_bound(k, q):
        raise InadmissibleParameters(f"no ({shown('n', n)}, {shown('k', k)})_{shown('', q)} "
                                     f"MDS code: n > {shown('', length_bound(k, q))}")
    if k == 1:
        return {n}
    if n == k:
        return set(range(1, n + 1))
    if q == 2:
        # here n = k+1: the binary parity-check case
        return {t for t in range(2, n + 1, 2)}
    if n < q + k - 1:
        return set(range(n - k + 1, n + 1))
    if k == 2:
        return {n - 1}
    return set(range(n - k + 1, n + 1)) - {n - k + 2}


# ------------------------------------------------- partition enumerators

class PartitionSpec:
    """Disjoint blocks of coordinate positions covering 0..n-1."""

    def __init__(self, n, blocks):
        check_integers(n=n)
        blocks = tuple(frozenset(b) for b in blocks)
        if any(not b for b in blocks):
            raise BadPartition("empty block")
        covered = [p for b in blocks for p in b]
        if not all(is_position(p, n) for p in covered) or sorted(covered) != list(range(n)):
            raise BadPartition(f"blocks do not partition 0..{n - 1}")
        self.n = n
        self.blocks = blocks
        self.sizes = tuple(len(b) for b in blocks)

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        return f"PartitionSpec(n={self.n}, sizes={self.sizes})"


def _check_profile(spec, profile):
    profile = tuple(profile)
    if len(profile) != len(spec.blocks):
        raise ProfileOutOfRange(
            f"profile has {len(profile)} entries for {len(spec.blocks)} blocks")
    for wi, ni in zip(profile, spec.sizes):
        if not is_position(wi, ni + 1):
            raise ProfileOutOfRange(f"profile entry {shown('', wi)} outside 0..{ni}")
    return profile


def partition_weight_enumerator_formula(n, k, q, spec, profile):
    """Closed-form count of codewords whose support meets block i in exactly
    profile[i] positions, for an MDS code containing the zero word."""
    if spec.n != n:
        raise BadPartition(f"partition covers {spec.n} positions, code length is {n}")
    _check_mds_params(n, k, q)
    profile = _check_profile(spec, profile)
    w = sum(profile)
    d = n - k + 1
    if w == 0:
        return 1
    if w < d:
        return 0
    factor = q - 1
    for wi, ni in zip(profile, spec.sizes):
        factor *= comb(ni, wi)
    return factor * _alternating_sum(w, d, q)


def _profile_count(code, center, spec, profile):
    """Codewords differing from center, which need not be a codeword, in
    exactly profile[i] positions inside block i, for each block."""
    if spec.n != code.n:
        raise BadPartition(f"partition covers {spec.n} positions, code length is {code.n}")
    profile = _check_profile(spec, profile)
    key = (center, spec.blocks)
    if code._profiles is None or code._profiles[0] != key:
        # the words per tuple of their agreements with center, block by block
        code._profiles = key, Counter(zip(*agreements(code.words, code.n, center,
                                                      spec.blocks)))
    return code._profiles[1][tuple(ni - wi for wi, ni in zip(profile, spec.sizes))]


def partition_weight_enumerator_bruteforce(code, spec, profile):
    """Exact profile count over every codeword."""
    return _profile_count(code, code.zero, spec, profile)


# ------------------------------------------------- distance spectra

def distance_distribution_from(code, center):
    """Counts of codewords at each distance from a chosen codeword."""
    center = tuple(center)
    if center not in code:
        raise WordNotInCode(f"{shown('', center)} is not a codeword")
    return _distances_from(code, bytes(center))


def partition_distance_enumerator(code, center, spec, profile):
    """Count codewords differing from `center` in exactly profile[i]
    positions inside block i, for each block."""
    center = tuple(center)
    if center not in code:
        raise WordNotInCode(f"{shown('', center)} is not a codeword")
    return _profile_count(code, bytes(center), spec, profile)
