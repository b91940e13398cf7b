"""wittkit: exact generalized Witt vector arithmetic, one-dimensional formal
group laws over Z[x], logarithm coefficients of complete-intersection
Calabi-Yau pencils, per-prime ordinariness diagnostics, and Picard-Fuchs
congruence certification.  Everything is exact; there is no floating point
anywhere in the package.
"""

from .families import (
    FAMILY_IDS,
    CompleteIntersectionFamily,
    FamilyCatalogEntry,
    UnknownFamilyError,
    am_logarithm,
    builtin_family,
    closed_form_logarithm,
    family_logarithm,
    resolve_family_id,
)
from .formal_groups import (
    AmbientMismatchError,
    Curve,
    FormalGroupLaw,
    IntegralityReport,
    Logarithm,
    canonical_curve,
    curve_frobenius,
    curve_scale,
    curve_verschiebung,
    fg_add,
    frobenius_matrix_1d,
    group_law_from_logarithm,
    integrality_report,
    multiplicative_logarithm,
    witt_cartier_bridge,
)
from .ordinarity import (
    BudgetExceededError,
    CongruenceCheck,
    FiberClassification,
    OracleUnavailableError,
    OrdinarityReport,
    classify_elliptic_fiber,
    frobenius_power_congruence,
    hasse_witt_poly,
    hasse_witt_value,
    ordinarity_scan,
)
from .picard_fuchs import (
    CoefficientCongruence,
    SolutionCheck,
    ThetaOperator,
    expand_operator,
    pf_congruence_check,
    series_solution_check,
)
from .polynomials import (
    NonIntegralError,
    SparsePolynomial,
    VariableMismatchError,
)
from .series import (
    TruncatedSeries,
    TruncationError,
)
from .witt import (
    GhostInvariantViolation,
    GhostVector,
    IntegralityError,
    WittVector,
    from_ghost,
    teichmueller,
    to_ghost,
    witt_add,
    witt_frobenius,
    witt_mul,
    witt_neg,
    witt_scale_int,
    witt_truncate,
    witt_verschiebung,
)

__version__ = "0.1.0"
