"""Core code model: words, distances, MDS verification, file I/O.

A code is a set of exactly q^k distinct length-n words over the alphabet
{0, .., q-1}.  Nothing here assumes an algebra on the alphabet: field
structure enters through the construction helpers, and min_distance only
tests whether a code is a coset of a group from galois.symbol_group.
Codewords are plain tuples of ints and codes are value-immutable, so
every transform returns a new Code and equivalence chains stay auditable.

Code file format (text, UTF-8):
    line 1:   MDSKIT v1
    line 2:   q=<int> n=<int>
    lines 3+: one codeword per line, n space-separated symbols.
Lines break at LF alone; a CR directly before an LF is tolerated, and any
other line break (a lone CR, VT, FF, \x1c-\x1e, NEL, U+2028, U+2029) is
refused.  The parser also rejects numbers that are not ASCII integers,
duplicate words, wrong arity, out-of-range symbols, and word counts that
are not a power of q.
"""

import math
import re
from collections import namedtuple
from itertools import combinations, islice

from .errors import (
    BadPositions,
    CodeFileError,
    InvalidCode,
    LengthMismatch,
    NotMds,
    TheoremViolation,
    TooFewWords,
    check_integers,
)
from .galois import symbol_group


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
        self._build(q, (tuple(w) for w in words), checked=False)

    @classmethod
    def _of(cls, q, words):
        """The code of words checked where they were made, tuples of ints
        in 0..q-1 of one length: it skips __init__'s per-symbol loop."""
        code = cls.__new__(cls)
        code._build(q, words, checked=True)
        return code

    def _build(self, q, words, checked):
        if q < 2:
            raise InvalidCode(f"alphabet size q={q} must be at least 2")
        wordset = frozenset(words)
        if not wordset:
            raise InvalidCode("code has no words")
        n = len(next(iter(wordset)))
        if n < 1:
            raise InvalidCode("words must have length at least 1")
        if not checked:
            for w in wordset:
                if len(w) != n:
                    raise InvalidCode("words have mixed lengths")
                for s in w:
                    if not is_position(s, q):
                        raise InvalidCode(f"symbol {s!r} outside 0..{q - 1}")
        k = _dimension_of(q, len(wordset))
        if k is None:
            raise InvalidCode(f"{len(wordset)} words is not a power of q={q}")
        self.q = q
        self.n = n
        self.k = k
        self.words = wordset
        self._d = None              # minimum distance, set by is_mds
        self._root = None           # the code this one was moved from, set by apply_moves
        self._sorted = None         # the words as a sorted tuple, set by sorted_words
        self._masks = None          # symbol masks over that order, set by bit_view

    @property
    def zero(self):
        return (0,) * self.n

    def contains_zero(self):
        return self.zero in self.words

    def sorted_words(self):
        """The words as a tuple in lexicographic order, sorted once."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.words))
        return self._sorted

    def __contains__(self, word):
        word = tuple(word)      # a word of floats or bools equal to a codeword is not one
        return word in self.words and all(is_position(s, self.q) for s in word)

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


class MdsReport(namedtuple("MdsReport", "is_mds d singleton_bound")):
    __slots__ = ()


def symbol_masks(words, n, q):
    """Bit-sliced view of a word list: masks[p][s] has bit j set when
    words[j][p] == s, so bit positions follow the order of words.  For
    q <= 256 each mask is one pass over position p's column as bytes,
    taken last word first so that word j lands on bit j: a translate
    writes b"1" where the symbol is s and b"0" elsewhere, and int(., 2)
    reads the bits.  A larger symbol does not fit in a byte, so larger
    alphabets (and an empty list) set the bits one word at a time."""
    if q > 256 or not words:
        masks = [[0] * q for _ in range(n)]
        for j, w in enumerate(words):
            bit = 1 << j
            for p, s in enumerate(w):
                masks[p][s] |= bit
        return masks
    tables = [b"0" * s + b"1" + b"0" * (255 - s) for s in range(q)]
    return [[int(column.translate(table), 2) for table in tables]
            for column in (bytes(column)[::-1] for column in zip(*words))]


def bit_view(code):
    """The code's sorted_words() and their symbol masks, which are built
    on first use and kept: the word set is frozen, so they cannot go stale."""
    words = code.sorted_words()
    if code._masks is None:
        code._masks = symbol_masks(words, code.n, code.q)
    return words, code._masks


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


def _distinct_on(columns, pos):
    """True iff no two words agree at every position of the nonempty pos;
    columns[p] holds the words' symbols at position p, in one word order."""
    return len(set(zip(*map(columns.__getitem__, pos)))) == len(columns[0])


def _coset_distance(code):
    """d of a code that is a coset c0 + H of a subgroup H of G^n, or
    None when the test below fails; c0 is the least word.  When the
    first k positions are an information set, c0's k-prefix is zero
    and sorted_words() holds the word of k-prefix x at index x read in
    base q.  For each of those positions i and each generator u of G,
    the test reads the word g of k-prefix u at i and zero elsewhere,
    and checks C + (g - c0) within C, column by column through the add
    rows.  The shifts that map C into itself form a group; these ones
    project onto all of G^k, so it has at least q^k = |C| elements and
    C is c0 plus that group.  Translations keep distances, so d is the
    least distance from c0 (MacWilliams and Sloane, ch. 1)."""
    q, k = code.q, code.k
    words = code.sorted_words()
    c0 = words[0]
    if q > 256 or any(c0[:k]):
        return None
    add, generators = symbol_group(q)
    columns = [bytes(column) for column in zip(*words)]
    for i in range(k):
        for u in generators:
            g = words[u * q ** (k - 1 - i)]
            if g[:k] != (0,) * i + (u,) + (0,) * (k - 1 - i):
                return None
            # add[a].index(b) is the shift b - a within the position
            shifted = [column.translate(add[add[a].index(b)])
                       for column, a, b in zip(columns, c0, g)]
            # before Python 3.12, issuperset would first copy an
            # iterable into a set; this stops at the first word outside
            if not all(map(code.words.__contains__, zip(*shifted))):
                return None
    differs = [column.translate(b"\1" * s + b"\0" + b"\1" * (255 - s))
               for column, s in zip(columns, c0)]
    return min(islice(map(sum, zip(*differs)), 1, None))


def min_distance(code):
    """Minimum pairwise distance, by the first of three exact routes
    that applies.  When C(n, k) <= n*k the code is first tested on
    every k-subset of positions: if each projects its q^k words onto
    distinct k-tuples, no two words agree in k positions, so d is the
    Singleton bound n-k+1 (MacWilliams and Sloane, ch. 11).  That costs
    C(n, k) set builds against the scan's n*k big-int steps per word,
    so it is the cheaper test on high-rate shapes (n = k+1, k = 1, the
    universe) and the dearer one on long low-rate codes.  Next,
    _coset_distance tests whether the code is a coset of a group, as
    every linear code whose first k positions are an information set
    is; if so, d is the least distance from its least word, found in
    O(mk*|C|*n) C-level steps for q = p^m.  Every other code takes
    _scan_distance, the bit-sliced scan over all words at once."""
    if len(code.words) < 2:
        raise TooFewWords("minimum distance needs at least two words")
    n, k = code.n, code.k
    if math.comb(n, k) <= n * k:
        columns = list(zip(*code.words))
        if all(_distinct_on(columns, pos) for pos in combinations(range(n), k)):
            return n - k + 1
    d = _coset_distance(code)
    return _scan_distance(code) if d is None else d


def _scan_distance(code):
    """d by bit-sliced agreement counting over all words at once:
    distance below best means agreement in at least n-best+1 positions,
    so each word lowers best while some later word agrees with it that
    often."""
    words, masks = bit_view(code)
    n = best = code.n
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
    k >= 2: k+1 when q <= k, q+k-2 for odd q with 3 <= k < q (Bush,
    "Orthogonal arrays of index unity", 1952, nonlinear codes included),
    else q+k-1.  Codes with k <= 1 exist at every length, so their bound
    is infinite.  It is known to be tight when q <= k (a parity-check
    code, e.g. sum_zero_code), for k = 2 when q is a prime power
    (extended_rs_code), for k = 3 when q is a power of 2
    (doubly_extended_rs, e.g. (6, 3)_4) and for k = 3 when q is an odd
    prime power (extended_rs_code, e.g. (6, 3)_5).  It is not tight in
    general: no (4, 2)_6 code exists (Euler's 36 officers)."""
    check_integers(k=k, q=q)
    if k < 2:
        return math.inf
    if q <= k:
        return k + 1
    return q + k - 2 if q % 2 and k >= 3 else q + k - 1


def is_mds(code):
    """Check d = n - k + 1; the report carries d and the Singleton bound.
    The code keeps d from its first call, so a code is scanned once.  A
    code that apply_moves built takes d from the root code it was moved
    from, since moves keep distances: min_distance runs once, on that
    root, for the root and all its moved copies."""
    if code._d is None:
        root = code if code._root is None else code._root
        if root._d is None:
            root._d = min_distance(root)
        code._d = root._d
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


def is_position(p, n):
    """True iff p is an int in 0..n-1; neither a float such as 1.0 nor a
    bool is a position.  The same test checks a symbol, p in 0..q-1."""
    return type(p) is int and 0 <= p < n


def information_set_check(code, positions):
    """True iff projecting onto the positions hits every k-tuple exactly once."""
    pos = tuple(positions)
    if len(pos) != code.k or len(set(pos)) != len(pos):
        raise BadPositions(f"need exactly k={code.k} distinct positions")
    if not all(is_position(p, code.n) for p in pos):
        raise BadPositions(f"positions must lie in 0..{code.n - 1}")
    # zip of no columns is empty, but the one word of a k = 0 code is distinct
    return code.k == 0 or _distinct_on(list(zip(*code.words)), pos)


# ---------------------------------------------------------------- file I/O

_MAGIC = "MDSKIT v1"
# integers in a code file are ASCII -?[0-9]+, not all that int() takes;
# tokens are split where str.split() splits them.  The patterns stay
# strings: re's own cache compiles each on first use, not at import
_PARAM_LINE = r"\s*q=(-?[0-9]+)\s+n=(-?[0-9]+)\s*"
_WORD_LINE = r"\s*-?[0-9]+(?:\s+-?[0-9]+)*\s*"
# where str.splitlines breaks a line besides LF; once each CR before an
# LF is dropped, the format has none of them
_OTHER_BREAK = "[\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]"


def format_code(code):
    """Render a code in the file format, words in lexicographic order."""
    # one name per symbol, unless the alphabet outnumbers the symbols
    # written (a one-word code over a large q)
    name = (list(map(str, range(code.q))).__getitem__
            if code.q <= len(code) * code.n else str)
    lines = [_MAGIC, f"q={code.q} n={code.n}"]
    lines.extend(" ".join(map(name, w)) for w in code.sorted_words())
    return "\n".join(lines) + "\n"


def write_code(code, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_code(code))


def parse_code(text):
    """The code a file's text holds; lines break at LF, with one CR
    before an LF tolerated.  A word line of canonical names ("0" ..
    str(q-1)) is read by one dict lookup per token; any other line takes
    the full checks, so "007" and "-0" still read as symbols."""
    text = text.replace("\r\n", "\n")
    other = re.search(_OTHER_BREAK, text)
    if other:
        lineno = text.count("\n", 0, other.start()) + 1
        raise CodeFileError(f"line {lineno}: line break {other.group()!r} other than LF")
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise CodeFileError(f"missing '{_MAGIC}' header")
    if len(lines) < 2:
        raise CodeFileError("missing parameter line 'q=<int> n=<int>'")
    params = re.fullmatch(_PARAM_LINE, lines[1])
    if not params:
        raise CodeFileError(f"bad parameter line: {lines[1]!r}")
    q, n = map(int, params.groups())
    if q < 2 or n < 1:
        raise CodeFileError(f"need q >= 2 and n >= 1, got q={q} n={n}")

    # bounded by the text's length, so a huge q builds no huge dict; a
    # symbol past the bound takes the full checks
    symbol = {str(s): s for s in range(min(q, len(text)))}.get
    words = []
    for lineno, line in enumerate(lines[2:], start=3):
        tokens = line.split()
        if not tokens:
            continue
        word = tuple(map(symbol, tokens))
        if None in word or len(word) != n:
            if not re.fullmatch(_WORD_LINE, line):
                raise CodeFileError(f"line {lineno}: non-integer symbol")
            word = tuple(map(int, tokens))
            if len(word) != n:
                raise CodeFileError(f"line {lineno}: expected {n} symbols, got {len(word)}")
            if any(s < 0 or s >= q for s in word):
                raise CodeFileError(f"line {lineno}: symbol outside 0..{q - 1}")
        words.append(word)

    if len(set(words)) != len(words):
        raise CodeFileError("duplicate codewords")
    if _dimension_of(q, len(words)) is None:
        raise CodeFileError(f"{len(words)} words is not a power of q={q}")
    return Code._of(q, words)


def read_code(path):
    # newline="": parse_code, not the reader, decides where lines break
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise CodeFileError(f"not valid UTF-8: {path}") from None
    return parse_code(text)
