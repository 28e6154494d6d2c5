"""Exception types shared across the package, and every input bound: the
int and cap checks, the word and length limits, and how messages show ints.

Everything raised on purpose derives from MdskitError so callers (and the
CLI) can distinguish domain errors from genuine bugs.  Inverting zero in a
field raises the builtin ZeroDivisionError.
"""

# no builder or search builds a Code of more than MAX_WORDS words (q^k),
# nor a builder one of words longer than MAX_WORD_LENGTH symbols; no Code
# or search takes more than MAX_SYMBOLS symbols (q), one byte per symbol
MAX_WORDS = 2 ** 16
MAX_WORD_LENGTH = 2 ** 16
MAX_SYMBOLS = 256


class MdskitError(Exception):
    """Base class for all mdskit errors."""


class UnsupportedOrder(MdskitError):
    """Requested field order is not a supported prime power."""


class InvalidCode(MdskitError):
    """Word set does not form a valid (n, k)_q code."""


class CodeFileError(MdskitError):
    """Code file is malformed or violates the format contract."""


class LengthMismatch(MdskitError):
    """Words of different lengths were compared."""


class TooFewWords(MdskitError):
    """Operation needs at least two codewords."""


class BadPositions(MdskitError):
    """Coordinate position set is not a valid selection for this code."""


class DuplicatePoints(MdskitError):
    """Evaluation points must be distinct."""


class DimensionTooLarge(MdskitError):
    """Dimension k exceeds what the construction supports."""


class OddCharacteristic(MdskitError):
    """Construction requires a field of characteristic 2."""


class NotPrime(MdskitError):
    """Argument must be a prime number."""


class NotLatinSquare(MdskitError):
    """Rows or columns of the array are not permutations of 0..q-1."""


class NotOrthogonal(MdskitError):
    """Two of the squares are not orthogonal."""


class NotMds(MdskitError):
    """Code does not meet the Singleton bound."""


class WrongDimension(MdskitError):
    """Code has the wrong dimension for this operation."""


class InvalidParameters(MdskitError):
    """Parameters do not describe a valid code, construction or search."""


class InadmissibleParameters(MdskitError):
    """(n, k, q) violate the combinatorial length bounds for MDS codes."""


class ZeroWordAbsent(MdskitError):
    """Operation requires the all-zero codeword; normalize the code first."""


class BadPartition(MdskitError):
    """Blocks do not partition the coordinate positions."""


class ProfileOutOfRange(MdskitError):
    """Weight profile entries exceed their block sizes."""


class WordNotInCode(MdskitError):
    """The given word is not a codeword."""


class BadMove(MdskitError):
    """Equivalence move is invalid for this code's parameters."""


class TooManyPositions(MdskitError):
    """Residual spec fixes more than k positions."""


class TheoremViolation(MdskitError):
    """A runtime-checked classification contract failed; this signals a
    counterexample to a proved statement and should never fire."""


class SearchSpaceTooLarge(MdskitError):
    """Search parameters exceed the guards of mdskit.search."""


class OutOfStatedRegime(UserWarning):
    """Closed-form enumerator evaluated outside its stated q >= k hypothesis.

    This is a warning, not an error: the value is still computed so callers
    can record empirically whether it agrees with a brute-force count.
    """


def check_integers(**params):
    """Refuse a parameter that is not an int: a float such as 3.0 passes
    every range check, then leaks into counts and built words, and a bool
    is an int subclass that would come back as a count such as True."""
    for name, value in params.items():
        if type(value) is not int:
            raise InvalidParameters(f"{name}={value!r} is not an integer")


def check_caps(**caps):
    """Refuse a cap that is not a positive int; None means no cap."""
    for name, cap in caps.items():
        if cap is not None:
            check_integers(**{name: cap})
            if cap < 1:
                raise InvalidParameters(f"{name} must be positive, got {shown('', cap)}")


def shown(name, value, bound=MAX_WORDS):
    """name=value, or name > bound (name < -bound) for a number with more
    digits than bound, so no message prints a long number; any other value
    as repr shows it, and a tuple or a bytes word as the tuple of its items,
    each so shown.  With no name, the value alone."""
    if type(value) in (tuple, bytes):
        text = "=({}{})".format(", ".join(shown("", v) for v in value), "," * (len(value) == 1))
    elif type(value) in (int, float) and abs(value) >= 10 ** len(str(bound)):
        text = f" > {bound}" if value > 0 else f" < {-bound}"
    else:
        text = f"={value!r}"
    return name + text if name else text.lstrip("= ")


def check_power(q, e, limit, symbol, name):
    """Refuse q^e above limit, reported as e.g. "q^k" and "word limit" ("n"
    names q for e = 1); a q below 2 or an e below 1 is left to the caller.
    A q or e longer than limit is shown as shown shows it, and an e past
    limit's bit length is refused without taking the power."""
    if q < 2 or e < 1:
        return
    for letter, value in zip(symbol.split("^"), (q, e)):
        said = shown(letter, value, limit)
        if "=" not in said:     # too long to show: said is "q > limit"
            raise SearchSpaceTooLarge(f"{symbol} exceeds the {name} {limit}: {said}")
    if e > limit.bit_length():
        raise SearchSpaceTooLarge(f"{symbol} = {q}^{e} exceeds the {name} {limit}")
    if q ** e > limit:
        raise SearchSpaceTooLarge(f"{symbol} = {q ** e} exceeds the {name} {limit}")


def check_word_limit(q, k):
    """Refuse a code of q^k words when that exceeds MAX_WORDS."""
    check_power(q, k, MAX_WORDS, "q^k", "word limit")


def check_length(n, limit=MAX_WORD_LENGTH, name="word length limit", symbol="n"):
    """Refuse a length n above limit, as check_power refuses a power."""
    check_power(n, 1, limit, symbol, name)


def check_symbols(q):
    """Refuse an alphabet of more than MAX_SYMBOLS symbols."""
    check_length(q, MAX_SYMBOLS, "symbol limit", "q")
