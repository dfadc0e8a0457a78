"""hfstrata: exact commutative algebra for punctual Hilbert-function strata.

Gröbner bases, graded minimal free resolutions, Hilbert series and
regularity, first-order deformation and obstruction spaces over F_p,
plus verifiers for the truncation and cone-curve constructions.
"""

__version__ = "0.1.0"

from .field import DEFAULT_PRIME, PrimeField
from .ring import (
    GREVLEX,
    LEX,
    GradedFreeModule,
    GradedMap,
    MonomialOrder,
    Polynomial,
    RingContext,
)
from .groebner import (
    Ideal,
    divide,
    ideal_member,
    ideal_sum,
    maximal_ideal_power,
)
from .invariants import (
    BettiTable,
    HilbertSeries,
    Resolution,
    betti_table,
    hilbert_function,
    hilbert_series,
    krull_dim,
    minimal_free_resolution,
    regularity,
)
from .deform import (
    ComparisonReport,
    Ext1Space,
    TangentSpace,
    Truncation,
    compare_truncation,
    ext1_space,
    tangent_space,
)
from .strata import (
    ConeCurveReport,
    TruncationReport,
    cone_curve,
    is_regular_sequence,
    predicted_hilbert_function,
    random_forms,
    truncate_ideal,
    verify_prop31,
)

__all__ = [
    "__version__",
    "DEFAULT_PRIME",
    "PrimeField",
    "RingContext",
    "MonomialOrder",
    "Polynomial",
    "GradedFreeModule",
    "GradedMap",
    "GREVLEX",
    "LEX",
    "Ideal",
    "divide",
    "ideal_member",
    "ideal_sum",
    "maximal_ideal_power",
    "BettiTable",
    "HilbertSeries",
    "Resolution",
    "betti_table",
    "hilbert_function",
    "hilbert_series",
    "krull_dim",
    "minimal_free_resolution",
    "regularity",
    "ComparisonReport",
    "Ext1Space",
    "TangentSpace",
    "Truncation",
    "compare_truncation",
    "ext1_space",
    "tangent_space",
    "ConeCurveReport",
    "TruncationReport",
    "cone_curve",
    "is_regular_sequence",
    "predicted_hilbert_function",
    "random_forms",
    "truncate_ideal",
    "verify_prop31",
]
