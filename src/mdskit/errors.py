"""Exception types shared across the package, and the int and cap checks
that the builders, the searches and the closed forms share.

Everything raised on purpose derives from MdskitError so callers (and the
CLI) can distinguish domain errors from genuine bugs.  Inverting zero in a
field raises the builtin ZeroDivisionError.
"""


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
                raise InvalidParameters(f"{name} must be positive, got {cap}")
