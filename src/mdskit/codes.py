"""Core code model: words, distances, MDS verification, file I/O.

A code is a set of exactly q^k distinct length-n words over the alphabet
{0, .., q-1}.  The only algebra here is galois.symbol_group's group:
span_columns builds a base word plus every digit combination of shifts
in it, the field codes' span and min_distance's test for a coset.
A codeword is a length-n bytes row, one byte per symbol, so an alphabet
holds at most errors.MAX_SYMBOLS symbols; columns_of and rows_of turn
rows into bytes columns and back, and every kernel works on those.
agreements counts each word's agreements with a center, block by block,
for every spectrum and for the group route's d; the bit-sliced masks of
symbol_masks and agreement_counters serve the scan and the search walk.
Codes are value-immutable, so every transform returns a new Code and
equivalence chains stay auditable.

Code file format (text, UTF-8):
    line 1:   MDSKIT v1
    line 2:   q=<int> n=<int>
    lines 3+: one codeword per line, n space-separated symbols.
Lines break at LF alone; a CR directly before an LF is tolerated, and any
other line break (a lone CR, VT, FF, \x1c-\x1e, NEL, U+2028, U+2029) is
refused.  The parser also rejects numbers that are not ASCII integers,
duplicate words, wrong arity, out-of-range symbols, and word counts that
are not a power of q.  The writer renders rows by one translate per
digit place (_lines_of); the reader keeps a chunk of lines only if its
rows render back to it, and reads any other chunk line by line.
"""

import math
import re
from collections import namedtuple
from itertools import accumulate, combinations, islice, repeat

from .errors import (
    BadPositions,
    CodeFileError,
    InvalidCode,
    LengthMismatch,
    NotMds,
    TheoremViolation,
    TooFewWords,
    check_integers,
    check_symbols,
    shown,
)
from .galois import prime_power, symbol_group


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


def columns_of(words, n):
    """The bytes columns of length-n bytes rows: column p holds every
    row's symbol at p, in the order the rows come."""
    m = b"".join(words)
    return [m[p::n] for p in range(n)]


def rows_of(columns):
    """The bytes rows of one or more bytes columns of one length, the
    inverse of columns_of."""
    n = len(columns)
    m = bytearray(n * len(columns[0]))
    for p, column in enumerate(columns):
        m[p::n] = column
    m = bytes(m)
    return [m[i:i + n] for i in range(0, len(m), n)]


def agreements(words, n, center, blocks):
    """For each nonempty block of positions, an iterator over the
    words' agreement counts with center within that block, in the order
    the words come.  Column p is relabeled by the transposition
    (0 center[p]), so a word agrees with center at p where the relabeled
    symbol is 0, and the zero bytes of each block's rows are counted.  A
    zero center on one block of all n positions counts the words
    themselves."""
    if not any(center) and len(blocks) == 1 and sorted(blocks[0]) == list(range(n)):
        return [map(bytes.count, words, repeat(0))]
    columns = columns_of(words, n)
    relabeled = [column.translate(bytes.maketrans(bytes((0, s)), bytes((s, 0))))
                 for column, s in zip(columns, center)]
    return [map(bytes.count, rows_of([relabeled[p] for p in block]), repeat(0))
            for block in blocks]


class Code:
    """An (n, k)_q code: a frozen set of q^k distinct words of length n,
    each a bytes row.  Any iterables of ints in 0..q-1 may be given."""

    def __init__(self, q, words):
        self._build(q, map(tuple, words), checked=False)

    @classmethod
    def _of(cls, q, words):
        """The code of words checked where they were made, bytes rows of
        one length over 0..q-1: it skips __init__'s per-symbol loop.  The
        words are read after q is checked, so they may be a generator
        that only a valid q can run."""
        code = cls.__new__(cls)
        code._build(q, words, checked=True)
        return code

    def _build(self, q, words, checked):
        if q < 2:
            raise InvalidCode(f"alphabet size {shown('q', q)} must be at least 2")
        check_symbols(q)
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
                        raise InvalidCode(f"symbol {shown('', s)} outside 0..{q - 1}")
            # every symbol is an int in 0..q-1, so distinct tuples stay distinct
            wordset = frozenset(map(bytes, wordset))
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
        self._profiles = None       # (center, blocks) and its profile counts, set by spectra

    @property
    def zero(self):
        return bytes(self.n)

    def contains_zero(self):
        return self.zero in self.words

    def sorted_words(self):
        """The words as a tuple in lexicographic order, sorted once."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.words))
        return self._sorted

    def __contains__(self, word):
        # symbols are checked first: bytes((True,)) is b"\x01", and a word
        # of floats or bools equal to a codeword is not one
        word = tuple(word)
        return all(is_position(s, self.q) for s in word) and bytes(word) in self.words

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
    """Bit-sliced view of a list of bytes rows: masks[p][s] has bit j set
    when words[j][p] == s, so bit positions follow the order of words.
    Each mask is one pass over position p's column, taken last word
    first so that word j lands on bit j: a translate writes b"1" where
    the symbol is s and b"0" elsewhere, and int(., 2) reads the bits (an
    empty list gives zero masks)."""
    tables = [b"0" * s + b"1" + b"0" * (255 - s) for s in range(q)]
    return [[int(column.translate(table) or b"0", 2) for table in tables]
            for column in columns_of(reversed(words), n)]


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
    columns holds the words' columns, as columns_of gives them.  A
    projection of at most 8 symbols, zero-padded to 8 bytes, is read as
    one int in C; a longer one as bytes rows."""
    chosen = [columns[p] for p in pos]
    if len(chosen) > 8:
        return len(set(rows_of(chosen))) == len(columns[0])
    m = bytearray(8 * len(columns[0]))
    for p, column in enumerate(chosen):
        m[p::8] = column
    return len(set(memoryview(m).cast("Q"))) == len(columns[0])


def span_columns(base, shifts, q):
    """The columns of every word base + d_1*s_1 + .. + d_t*s_t, summed
    in symbol_group(q), each digit d_j in 0..p-1 for p the order of the
    group's generators (p = q when q is not a prime power).  Rows come
    in digit order, d_1 the most significant: each shift, the last
    first, joins p translates of each column, by its multiples 0, s,
    .., (p-1)*s at that position."""
    add, _ = symbol_group(q)
    p = (prime_power(q) or (q, 1))[0]
    columns = [base[i:i + 1] for i in range(len(base))]
    for shift in reversed(shifts):
        columns = [b"".join(column.translate(add[x]) for x in
                            accumulate(repeat(s, p - 1), lambda x, s: add[x][s], initial=0))
                   for column, s in zip(columns, shift)]
    return columns


def _coset_distance(code):
    """d of a code that is a coset c0 + H of a subgroup H of G^n, c0 its
    least word, or None when the test below fails.  When the first k
    positions are an information set, c0's k-prefix is zero and
    sorted_words() holds the word of k-prefix x at index x read in base
    q.  The axis word of i < k and a generator u of G has k-prefix u at
    i, zero elsewhere; span_columns rebuilds c0 plus every digit
    combination of their shifts from c0, by position and largest u
    first, so in k-prefix order.  If that is the code, C is c0 plus a
    homomorphism's image, a subgroup; translations keep distances, so d
    is the least distance from c0 (MacWilliams and Sloane, ch. 1)."""
    q, k, n = code.q, code.k, code.n
    words = code.sorted_words()
    c0 = words[0]
    if any(c0[:k]):
        return None
    add, generators = symbol_group(q)
    shifts = []
    for i in range(k):
        for u in reversed(generators):
            g = words[u * q ** (k - 1 - i)]
            if g[:k] != bytes(i) + bytes((u,)) + bytes(k - 1 - i):
                return None
            # add[a].index(b) is the shift b - a within the position
            shifts.append(bytes(map(lambda a, b: add[a].index(b), c0, g)))
    if span_columns(c0, shifts, q) != columns_of(words, n):
        return None
    (agree,) = agreements(words, n, c0, [range(n)])
    return n - max(islice(agree, 1, None))


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
    O(|C|*n) C-level steps: the rebuild and one count.  Every other code takes
    _scan_distance, the bit-sliced scan over all words at once."""
    if len(code.words) < 2:
        raise TooFewWords("minimum distance needs at least two words")
    n, k = code.n, code.k
    if math.comb(n, k) <= n * k:
        columns = columns_of(code.words, n)
        if all(_distinct_on(columns, pos) for pos in combinations(range(n), k)):
            return n - k + 1
    d = _coset_distance(code)
    return _scan_distance(code) if d is None else d


def _scan_distance(code):
    """d by bit-sliced agreement counting over all words at once:
    distance below best means agreement in at least n-best+1 positions,
    so each word lowers best while some later word agrees with it that
    often."""
    words = code.sorted_words()
    n = best = code.n
    masks = symbol_masks(words, n, code.q)
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
    # _distinct_on takes one position or more; the one word of a k = 0 code is distinct
    return code.k == 0 or _distinct_on(columns_of(code.words, code.n), pos)


# ---------------------------------------------------------------- file I/O

_MAGIC = "MDSKIT v1"
# integers in a code file are ASCII -?[0-9]+, not all that int() takes;
# tokens are split where str.split() splits them.  The patterns stay
# strings: re's own cache compiles each on first use, not at import
_PARAM_LINE = r"\s*q=(-?[0-9]+)\s+n=(-?[0-9]+)\s*"
_WORD_LINE = r"\s*-?[0-9]+(?:\s+-?[0-9]+)*\s*"
# characters of a bad parameter line that its message shows, fewer when
# escapes make their repr longer than a printable line's can be
_LINE_SHOWN = 60
# where str.splitlines breaks a line besides LF; once each CR before an
# LF is dropped, the format has none of them.  The ASCII ones are tested
# by str.__contains__ first, so the regex runs only when one may be there
_ASCII_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
_OTHER_BREAK = f"[{_ASCII_BREAKS}\x85\u2028\u2029]"
# a symbol's decimal digits by place, hundreds, tens and units: byte s of
# a table is that digit of str(s), or NUL where str(s) has no digit there
_NAMES = ("%03d" * 256 % tuple(range(256))).encode()
_DIGITS = (bytes(100) + _NAMES[300::3], bytes(10) + _NAMES[31::3], _NAMES[2::3])
# words rendered at a time: one block's buffer, not the whole file's,
# is held beside the text
_BLOCK = 4096
# the reader's tables: a digit's value (0 off a digit), and 0xFF on
# every byte but the separators space and LF
_VALUE = bytes(48) + bytes(range(10)) + bytes(198)
_MARK = b"\xff" * 10 + b"\0" + b"\xff" * 21 + b"\0" + b"\xff" * 223
# bytes of word lines read at a time, each chunk extended to the next LF
_CHUNK = 1 << 14


def _lines_of(m, n, places):
    """The word lines of the length-n rows joined in m, as ASCII bytes.
    Each symbol gets w + 1 bytes of a buffer, w = len(places): its w
    digit places, each filled for all rows by one translate of m through
    a table of _DIGITS, and a space or, after a word's last symbol, a
    newline.  Dropping the NULs of names shorter than w leaves the
    lines."""
    step = len(places) + 1
    out = bytearray(step * len(m))
    for i, table in enumerate(places):
        out[i::step] = m.translate(table)
    out[step - 1::step] = (b" " * (n - 1) + b"\n") * (len(m) // n)
    return out.translate(None, b"\0")


def _rendered(code):
    """The file's text in pieces: the header, then the lines of each
    block of at most _BLOCK words in lexicographic order."""
    n, words = code.n, code.sorted_words()
    places = _DIGITS[3 - len(str(code.q - 1)):]
    yield f"{_MAGIC}\nq={code.q} n={n}\n"
    for start in range(0, len(words), _BLOCK):
        yield _lines_of(b"".join(words[start:start + _BLOCK]), n, places).decode("ascii")


def format_code(code):
    """Render a code in the file format, words in lexicographic order,
    each symbol by its decimal name ("0" .. str(q-1))."""
    return "".join(_rendered(code))


def write_code(code, path):
    """Write format_code(code) to path, one block of words at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_rendered(code))


def _number(token):
    """The int an ASCII -?[0-9]+ token names, read as 10**18 or -10**18
    past 18 digits, leading zeros aside: int() refuses a number of over
    4300 digits, no line holds 10**18 symbols, and every message shows a
    number past 5 digits alike (errors.shown)."""
    digits = token.lstrip("-").lstrip("0")
    value = int(digits or "0") if len(digits) <= 18 else 10 ** 18
    return -value if token[0] == "-" else value


def _canonical_rows(chunk, n, q):
    """The rows of a chunk of word lines, or None unless the chunk is
    _lines_of those rows byte for byte: canonical names of symbols below
    q, one space apart, each line ending in LF.  Only that check is
    trusted, so the kernel may assume canonical text.  One-digit names
    sit at every second byte.  Longer ones are read with ints as byte
    lanes: the units and tens digits before each separator are shifted
    onto it and summed (at most 99; a separator reads as 0), and the
    hundreds, where the byte between is not a separator, into a second
    int.  Every other lane is set to 0xFF and deleted, and the places
    are summed: a symbol past 255 overflows or renders back otherwise."""
    b = chunk.encode()
    places = _DIGITS[3 - len(str(q - 1)):]
    if len(places) == 1:
        m = b[::2].translate(_VALUE)
    else:
        value, mark = (int.from_bytes(b.translate(t), "big") for t in (_VALUE, _MARK))
        lanes = [(value >> 8) + (value >> 16) * 10]
        if len(places) == 3:
            lanes.append(value >> 24 & mark >> 16)
        total = 0
        for scale, x in zip((1, 100), lanes):
            x = (x | mark).to_bytes(len(b), "big").translate(None, b"\xff")
            total += int.from_bytes(x, "big") * scale
        try:
            m = total.to_bytes(len(x), "big")
        except OverflowError:
            return None
    if (not m or len(m) % n or m.translate(None, bytes(range(q)))
            or _lines_of(m, n, places) != b):
        return None
    return [m[i:i + n] for i in range(0, len(m), n)]


def _line_words(lines, lineno, n, q):
    """The words of lines numbered from lineno, blank ones skipped: a
    line of canonical names is read by one dict lookup per token; any
    other takes the full checks, so "007" and "-0" still read as symbols
    and a number of any length as _number reads it."""
    symbol = {str(s): s for s in range(q)}.get
    words = []
    for lineno, line in enumerate(lines, start=lineno):
        tokens = line.split()
        if not tokens:
            continue
        try:
            word = bytes(map(symbol, tokens))
        except TypeError:       # a token with no canonical name maps to None
            word = None
        if word is None or len(word) != n:
            if not re.fullmatch(_WORD_LINE, line):
                raise CodeFileError(f"line {lineno}: non-integer symbol")
            word = tuple(map(_number, tokens))
            if len(word) != n:
                raise CodeFileError(
                    f"line {lineno}: expected {shown('', n)} symbols, got {len(word)}")
            if any(s < 0 or s >= q for s in word):
                raise CodeFileError(f"line {lineno}: symbol outside 0..{q - 1}")
            word = bytes(word)
        words.append(word)
    return words


def parse_code(text):
    """The code a file's text holds; lines break at LF, with one CR
    before an LF tolerated.  The text is searched for another break only
    when it is not ASCII or holds one of the ASCII ones.  Word lines are
    read a chunk of about _CHUNK bytes at a time, each chunk extended to
    the next LF, since splitting the whole body at once holds every
    token as a str.  A chunk that _lines_of could have written is read
    by _canonical_rows with no object per token; any other chunk goes
    through _line_words, the only source of messages, with its true
    first line number."""
    text = text.replace("\r\n", "\n")
    if not text.isascii() or any(map(text.__contains__, _ASCII_BREAKS)):
        other = re.search(_OTHER_BREAK, text)
        if other:
            lineno = text.count("\n", 0, other.start()) + 1
            raise CodeFileError(f"line {lineno}: line break {other.group()!r} other than LF")
    start = text.find("\n", text.find("\n") + 1) + 1 or len(text)
    lines = text[:start].splitlines()
    if not lines or lines[0] != _MAGIC:
        raise CodeFileError(f"missing '{_MAGIC}' header")
    if len(lines) < 2:
        raise CodeFileError("missing parameter line 'q=<int> n=<int>'")
    params = re.fullmatch(_PARAM_LINE, lines[1])
    if not params:
        shown_line = lines[1][:_LINE_SHOWN]
        # a printable character's repr takes at most two characters
        while len(repr(shown_line)) > 2 * _LINE_SHOWN + 2:
            shown_line = shown_line[:-1]
        raise CodeFileError(f"bad parameter line: {shown_line!r}"
                            + "..." * (shown_line != lines[1]))
    q, n = map(_number, params.groups())
    if q < 2 or n < 1:
        raise CodeFileError(f"need q >= 2 and n >= 1, got {shown('q', q)} {shown('n', n)}")
    check_symbols(q)

    words = []
    lineno = 3
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end]
        rows = _canonical_rows(chunk, n, q)
        words += _line_words(chunk.splitlines(), lineno, n, q) if rows is None else rows
        lineno += chunk.count("\n")
        start = end

    # Code._of takes this frozenset as it is, so no word is hashed twice
    wordset = frozenset(words)
    if len(wordset) != len(words):
        raise CodeFileError("duplicate codewords")
    if _dimension_of(q, len(words)) is None:
        raise CodeFileError(f"{len(words)} words is not a power of {shown('q', q)}")
    return Code._of(q, wordset)


def read_code(path):
    # newline="": parse_code, not the reader, decides where lines break
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise CodeFileError(f"not valid UTF-8: {path}") from None
    return parse_code(text)
