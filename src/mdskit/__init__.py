"""Tools for building and dissecting MDS codes over small alphabets.

A code here is any set of q^k words of length n over {0..q-1}; it is MDS
when its minimum distance meets the Singleton bound n - k + 1.  The
package constructs the classical families, computes weight, partition,
and distance spectra both by brute force and by closed form, applies
distance-preserving transforms, and searches parameter ranges
exhaustively to confirm existence bounds.
"""

from .codes import (
    Code,
    MdsReport,
    format_code,
    hamming_distance,
    information_set_check,
    is_mds,
    length_bound,
    min_distance,
    parse_code,
    read_code,
    require_mds,
    weight,
    write_code,
)
from .constructions import (
    LatinSquare,
    MolsSet,
    are_orthogonal,
    code_to_mols,
    cyclic_mols,
    doubly_extended_rs,
    extended_rs_code,
    mols_to_code,
    repetition_code,
    rs_code,
    sum_zero_code,
    universe_code,
)
from .errors import (
    BadMove,
    BadPartition,
    BadPositions,
    CodeFileError,
    DimensionTooLarge,
    DuplicatePoints,
    InadmissibleParameters,
    InvalidCode,
    InvalidParameters,
    LengthMismatch,
    MdskitError,
    NotLatinSquare,
    NotMds,
    NotOrthogonal,
    NotPrime,
    OddCharacteristic,
    OutOfStatedRegime,
    ProfileOutOfRange,
    SearchSpaceTooLarge,
    TheoremViolation,
    TooFewWords,
    TooManyPositions,
    UnsupportedOrder,
    WordNotInCode,
    WrongDimension,
    ZeroWordAbsent,
)
from .galois import SUPPORTED_ORDERS, Field
from .search import (
    SearchResult,
    SearchSpec,
    TheoremReport,
    check_theorems,
    enumerate_mds,
    exists_mds,
    verify_bounds,
    verify_distribution,
    verify_spectrum_theorems,
)
from .spectra import (
    PartitionSpec,
    WeightDistribution,
    distance_distribution_from,
    partition_distance_enumerator,
    partition_weight_enumerator_bruteforce,
    partition_weight_enumerator_formula,
    predicted_spectrum,
    weight_distribution_bruteforce,
    weight_distribution_formula,
    weight_spectrum,
)
from .transforms import (
    PP,
    SP,
    BinaryClass,
    BinaryKind,
    ResidualSpec,
    apply_move,
    apply_moves,
    classify_binary,
    format_move,
    normalize_to_zero,
    residual,
    transposition,
)

__version__ = "0.1.0"
