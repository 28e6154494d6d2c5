"""Equivalence moves, residual codes, and the binary classification.

Two codes over the same alphabet are equivalent when one maps onto the
other by permuting coordinate positions and independently permuting the
alphabet within each position.  Both kinds of move preserve pairwise
distances, hence (n, k, d).  The moves here are the generators:

    SP: apply a symbol permutation at one position
    PP: swap two positions

A list of moves composes into one relabeling: output position p reads
some input position and relabels its symbol.  apply_moves folds the
list into that map and builds one Code for the whole list, not one per
move.  Since moves keep distances, a moved code takes its minimum
distance from the root code it was moved from (see apply_moves).  Any
code is carried onto one containing the zero word by per-position
transpositions, which is what normalize_to_zero does.

A t-residual code fixes t coordinates of an MDS code to values that some
codeword attains, keeps the matching words, and deletes the fixed
positions; the result is an (n-t, k-t)_q MDS code.

Every binary MDS code is equivalent to a repetition code, the whole space,
or an even-weight (single parity check) code; classify_binary decides
which, and raises if a purported counterexample shows up.
"""

from collections import namedtuple
from enum import Enum
from itertools import compress
from operator import itemgetter

from .codes import Code, is_mds, is_position, require_mds
from .errors import (
    BadMove,
    BadPositions,
    InvalidParameters,
    TheoremViolation,
    TooManyPositions,
)

SYMBOL_LIMIT = 2 ** 16


class SP(namedtuple("SP", "position perm")):
    """Relabel symbols at one position: symbol s becomes perm[s]."""
    __slots__ = ()
    # _replace builds through _make: send it through __new__ as well
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, position, perm):
        return super().__new__(cls, position, tuple(perm))


class PP(namedtuple("PP", "i j")):
    """Swap positions i and j."""
    __slots__ = ()


def apply_moves(code, moves):
    """Apply the moves in order, returning one new code (the input code
    itself when there are none).  The list folds into, per output
    position p, the input position source[p] it reads and the
    relabeling relabel[p] of that symbol; every move is checked as it
    folds, before any word is rewritten, and each word is rewritten
    once.  The moves keep distances, so the new code holds the root
    code of the chain (the input, or the code the input was itself
    moved from), and is_mds on any moved copy reads d from that root,
    which computes it once."""
    moves = tuple(moves)
    if not moves:
        return code
    source = list(range(code.n))
    relabel = [tuple(range(code.q))] * code.n
    for move in moves:
        if isinstance(move, SP):
            p = move.position
            if not is_position(p, code.n):
                raise BadMove(f"position {p} outside 0..{code.n - 1}")
            if (not all(is_position(s, code.q) for s in move.perm)
                    or sorted(move.perm) != list(range(code.q))):
                raise BadMove(f"{move.perm} is not a permutation of 0..{code.q - 1}")
            relabel[p] = tuple(move.perm[s] for s in relabel[p])
        elif isinstance(move, PP):
            i, j = move.i, move.j
            if not (is_position(i, code.n) and is_position(j, code.n)):
                raise BadMove(f"positions ({i}, {j}) outside 0..{code.n - 1}")
            source[i], source[j] = source[j], source[i]
            relabel[i], relabel[j] = relabel[j], relabel[i]
        else:
            raise BadMove(f"unknown move {move!r}")
    columns = list(zip(*code.words))
    moved = [map(relabel[p].__getitem__, columns[source[p]]) for p in range(code.n)]
    out = Code._of(code.q, zip(*moved))
    out._root = code if code._root is None else code._root
    return out


def apply_move(code, move):
    """Apply one SP or PP move, returning a new code."""
    return apply_moves(code, (move,))


def transposition(q, a, b):
    """The permutation of 0..q-1 exchanging a and b."""
    perm = list(range(q))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def normalize_to_zero(code, word=None):
    """Moves carrying `word` (default: the lexicographically least codeword)
    to the zero word.  Returns (new_code, moves).  Each move lists q
    symbols, so a one-word code over more than SYMBOL_LIMIT is refused."""
    if code.k == 0 and code.q > SYMBOL_LIMIT:
        raise InvalidParameters(f"q={code.q} exceeds the symbol limit {SYMBOL_LIMIT}")
    if word is None:
        word = code.sorted_words()[0]
    else:
        word = tuple(word)
        if word not in code:
            raise BadMove(f"{word} is not a codeword")
    moves = [SP(p, transposition(code.q, s, 0))
             for p, s in enumerate(word) if s != 0]
    return apply_moves(code, moves), moves


def format_move(move):
    """One-line serialization; positions are 1-based on the wire."""
    if isinstance(move, SP):
        return f"SP {move.position + 1} {' '.join(str(s) for s in move.perm)}"
    if isinstance(move, PP):
        return f"PP {move.i + 1} {move.j + 1}"
    raise BadMove(f"unknown move {move!r}")


# ------------------------------------------------- residual codes

class ResidualSpec(namedtuple("ResidualSpec", "positions values")):
    """Fix positions[i] to values[i], then delete those positions."""
    __slots__ = ()
    # _replace builds through _make: send it through __new__ as well
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, positions, values):
        self = super().__new__(cls, tuple(positions), tuple(values))
        if len(self.positions) != len(self.values):
            raise BadPositions("positions and values differ in length")
        if len(set(self.positions)) != len(self.positions):
            raise BadPositions("repeated position")
        return self


def residual(code, spec):
    """The residual code: keep words matching the fixed values, delete the
    fixed positions.  Input must be MDS; output is (n-t, k-t)_q MDS."""
    require_mds(code)
    t = len(spec.positions)
    if t > code.k:
        raise TooManyPositions(f"cannot fix {t} positions with k={code.k}")
    for p in spec.positions:
        if not is_position(p, code.n):
            raise BadPositions(f"position {p} outside 0..{code.n - 1}")
    for v in spec.values:
        if not is_position(v, code.q):
            raise BadPositions(f"values must lie in 0..{code.q - 1}, got {v}")
    words = code.words
    if t:
        # itemgetter of one position returns the bare symbol, not a 1-tuple
        values = spec.values if t > 1 else spec.values[0]
        words = compress(words, map(values.__eq__, map(itemgetter(*spec.positions), words)))
    kept = [p for p in range(code.n) if p not in spec.positions]
    if len(kept) > 1:
        words = map(itemgetter(*kept), words)
    else:
        words = [tuple(w[p] for p in kept) for w in words]
    out = Code._of(code.q, words)
    if out.k > 0:
        # every residual of an MDS code is MDS; a failure here is a bug
        sub = is_mds(out)
        if not sub.is_mds:
            raise TheoremViolation(
                f"residual (n={out.n}, k={out.k})_{out.q} has d={sub.d}")
    return out


# ------------------------------------------------- binary classification

class BinaryKind(Enum):
    REPETITION = "repetition"
    UNIVERSE = "universe"
    PARITY_CHECK = "parity-check"


class BinaryClass(namedtuple("BinaryClass", "kind moves")):
    __slots__ = ()


def classify_binary(code):
    """Decide which of the three binary MDS shapes this code is equivalent
    to, returning the class and the normalizing moves."""
    if code.q != 2:
        raise InvalidParameters(f"classification applies to q=2 only, got q={code.q}")
    require_mds(code)
    normalized, moves = normalize_to_zero(code)
    n, k = code.n, code.k
    if k == 1:
        kind = BinaryKind.REPETITION
        if normalized.words != {(0,) * n, (1,) * n}:
            raise TheoremViolation(f"(n={n}, k={k})_2 does not match {kind.value}")
    elif n == k:
        kind = BinaryKind.UNIVERSE
    elif n == k + 1:
        # its 2^k words are the whole even-weight code when all are even
        kind = BinaryKind.PARITY_CHECK
        if any(sum(w) % 2 for w in normalized.words):
            raise TheoremViolation("normalized words are not all of even weight")
    else:
        raise TheoremViolation(f"binary MDS code with n={n}, k={k}")
    return BinaryClass(kind, tuple(moves))
