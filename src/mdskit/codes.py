"""Core code model: words, distances, MDS verification, file I/O.

A code is a set of exactly q^k distinct length-n words over the alphabet
{0, .., q-1}.  The alphabet carries no algebra here; field structure only
enters through the construction helpers.  Codewords are plain tuples of
ints and codes are value-immutable, so every transform returns a new Code
and equivalence chains stay auditable.

Code file format (text, UTF-8, LF):
    line 1:   MDSKIT v1
    line 2:   q=<int> n=<int>
    lines 3+: one codeword per line, n space-separated symbols.
The parser rejects duplicate words, wrong arity, out-of-range symbols, and
word counts that are not a power of q.
"""

import math
from dataclasses import dataclass

from .errors import (
    BadPositions,
    CodeFileError,
    InvalidCode,
    LengthMismatch,
    NotMds,
    TheoremViolation,
    TooFewWords,
)


def hamming_distance(a, b):
    """Number of coordinates in which a and b differ."""
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} and {len(b)} differ")
    return sum(x != y for x, y in zip(a, b))


def weight(c):
    """Number of nonzero coordinates, i.e. distance from the zero word."""
    return sum(x != 0 for x in c)


def _dimension_of(q, count):
    k = 0
    total = 1
    while total < count:
        total *= q
        k += 1
    return k if total == count else None


class Code:
    """An (n, k)_q code: a frozen set of q^k distinct words of length n."""

    def __init__(self, q, words):
        if q < 2:
            raise InvalidCode(f"alphabet size q={q} must be at least 2")
        wordset = frozenset(tuple(w) for w in words)
        if not wordset:
            raise InvalidCode("code has no words")
        n = len(next(iter(wordset)))
        if n < 1:
            raise InvalidCode("words must have length at least 1")
        for w in wordset:
            if len(w) != n:
                raise InvalidCode("words have mixed lengths")
            for s in w:
                if not (isinstance(s, int) and 0 <= s < q):
                    raise InvalidCode(f"symbol {s!r} outside 0..{q - 1}")
        k = _dimension_of(q, len(wordset))
        if k is None:
            raise InvalidCode(f"{len(wordset)} words is not a power of q={q}")
        self.q = q
        self.n = n
        self.k = k
        self.words = wordset
        self._d = None              # minimum distance, set by is_mds
        self._view = None           # (word order, symbol masks), set by bit_view

    @property
    def zero(self):
        return (0,) * self.n

    def contains_zero(self):
        return self.zero in self.words

    def sorted_words(self):
        return sorted(self.words)

    def __contains__(self, word):
        return tuple(word) in self.words

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.sorted_words())

    def __eq__(self, other):
        return (isinstance(other, Code)
                and other.q == self.q and other.words == self.words)

    def __hash__(self):
        return hash((self.q, self.words))

    def __repr__(self):
        return f"Code((n={self.n}, k={self.k})_{self.q}, {len(self.words)} words)"


@dataclass(frozen=True)
class MdsReport:
    is_mds: bool
    d: int
    singleton_bound: int


def symbol_masks(words, n, q):
    """Bit-sliced view of a word list: masks[p][s] has bit j set when
    words[j][p] == s, so bit positions follow the order of words."""
    masks = [[0] * q for _ in range(n)]
    for j, w in enumerate(words):
        bit = 1 << j
        for p, s in enumerate(w):
            masks[p][s] |= bit
    return masks


def bit_view(code):
    """The code's words in sorted order and their symbol masks, built on
    first use and kept on the code: its words are a frozenset, so the
    view cannot go stale."""
    if code._view is None:
        words = code.sorted_words()
        code._view = (words, symbol_masks(words, code.n, code.q))
    return code._view


def agreement_counters(word, within, masks, t):
    """Counters c[0..t] over the words in `within` (bits as in masks):
    c[r] holds the words agreeing with word in at least r of the
    positions that masks and word cover.  Each position costs t big-int
    AND/OR steps.  At position p the counters above p+1 are still 0, so
    their steps are cheap no-ops; skipping them costs more than it
    saves."""
    c = [within] + [0] * t
    steps = range(t, 0, -1)
    for column, s in zip(masks, word):
        m = column[s]
        for r in steps:
            c[r] |= c[r - 1] & m
    return c


def min_distance(code):
    """Minimum pairwise distance, by bit-sliced agreement counting over
    all words at once.  Distance below best means agreement in at least
    n-best+1 positions, so each word lowers best while some later word
    agrees with it that often."""
    if len(code.words) < 2:
        raise TooFewWords("minimum distance needs at least two words")
    words, masks = bit_view(code)
    n = code.n
    best = n
    later = (1 << len(words)) - 1
    for w in words:
        later &= later - 1          # drop w's own bit, the lowest one left
        while agreement_counters(w, later, masks, n - best + 1)[-1]:
            best -= 1
            if best == 1:
                return 1
    return best


def length_bound(k, q):
    """An upper bound on the length n of any (n, k)_q MDS code with
    k >= 2: k+1 when q <= k, else q+k-1.  Codes with k <= 1 exist at
    every length, so their bound is infinite.  It is known to be tight
    when q <= k (a parity-check code, e.g. sum_zero_code), for k = 2
    when q is a prime power (extended_rs_code) and for k = 3 when q is a
    power of 2 (doubly_extended_rs, e.g. (6, 3)_4).  It is not tight in
    general: no (4, 2)_6 code exists (Euler's 36 officers), and for odd
    q with 3 <= k < q no code is longer than q+k-2 (Bush, 1952)."""
    if k < 2:
        return math.inf
    return k + 1 if q <= k else q + k - 1


def is_mds(code):
    """Check d = n - k + 1; the report carries d and the Singleton bound.
    The code keeps d from its first call, so a code is scanned once."""
    if code._d is None:
        code._d = min_distance(code)
    d = code._d
    bound = code.n - code.k + 1
    report = MdsReport(is_mds=(d == bound), d=d, singleton_bound=bound)
    if report.is_mds and code.n > length_bound(code.k, code.q):
        raise TheoremViolation(
            f"(n={code.n}, k={code.k})_{code.q} MDS code is longer than the "
            f"length bound {length_bound(code.k, code.q)}")
    return report


def require_mds(code):
    """The MdsReport of an MDS code; any other code raises NotMds."""
    report = is_mds(code)
    if not report.is_mds:
        raise NotMds(f"d={report.d} < {report.singleton_bound}")
    return report


def information_set_check(code, positions):
    """True iff projecting onto the positions hits every k-tuple exactly once."""
    pos = tuple(positions)
    if len(pos) != code.k or len(set(pos)) != len(pos):
        raise BadPositions(f"need exactly k={code.k} distinct positions")
    if any(not (0 <= p < code.n) for p in pos):
        raise BadPositions(f"positions must lie in 0..{code.n - 1}")
    seen = {tuple(w[p] for p in pos) for w in code.words}
    return len(seen) == len(code.words)


# ---------------------------------------------------------------- file I/O

_MAGIC = "MDSKIT v1"


def format_code(code):
    """Render a code in the file format, words in lexicographic order."""
    lines = [_MAGIC, f"q={code.q} n={code.n}"]
    lines.extend(" ".join(str(s) for s in w) for w in code.sorted_words())
    return "\n".join(lines) + "\n"


def write_code(code, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_code(code))


def parse_code(text):
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise CodeFileError(f"missing '{_MAGIC}' header")
    if len(lines) < 2:
        raise CodeFileError("missing parameter line 'q=<int> n=<int>'")
    fields = lines[1].split()
    if (len(fields) != 2 or not fields[0].startswith("q=")
            or not fields[1].startswith("n=")):
        raise CodeFileError(f"bad parameter line: {lines[1]!r}")
    try:
        q = int(fields[0][2:])
        n = int(fields[1][2:])
    except ValueError:
        raise CodeFileError(f"bad parameter line: {lines[1]!r}") from None
    if q < 2 or n < 1:
        raise CodeFileError(f"need q >= 2 and n >= 1, got q={q} n={n}")

    words = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        try:
            word = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise CodeFileError(f"line {lineno}: non-integer symbol") from None
        if len(word) != n:
            raise CodeFileError(f"line {lineno}: expected {n} symbols, got {len(word)}")
        if any(s < 0 or s >= q for s in word):
            raise CodeFileError(f"line {lineno}: symbol outside 0..{q - 1}")
        words.append(word)

    if len(set(words)) != len(words):
        raise CodeFileError("duplicate codewords")
    if _dimension_of(q, len(words)) is None:
        raise CodeFileError(f"{len(words)} words is not a power of q={q}")
    return Code(q, words)


def read_code(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code(fh.read())
