"""Exact classification of extremal and cscS rays over polarized products.

The library solves the weighted-extremal boundary-value problem for the
2-dimensional subcone of rotation axes on such fibrations, certifies
positivity and root conditions with exact Sturm methods, detects momentum
profile twins, and handles the integer arithmetic of quotient joins.
"""

from ._version import __version__
from .conescan import (
    ConeScanReport,
    RayClassification,
    classify_ray,
    scan,
    slope,
)
from .cscs import (
    condition_numerator,
    csc_condition,
    csc_roots,
    h_poly_p5,
)
from .errors import (
    DomainError,
    InexactDivision,
    InternalInconsistency,
    LogarithmicTerm,
    SingularSystem,
    WrongWeight,
    ZeroPolynomial,
)
from .exactmath import (
    MultiPoly,
    RootInterval,
    UniPoly,
    exact_divide,
    format_rational,
    integrate_weighted_monomial,
    is_positive_on_open,
    isolate_roots,
    parse_rational,
    poly_gcd,
    simplest_rational_in,
    squarefree_part,
    sturm_count_roots,
)
from .joinsetup import (
    JoinSpec,
    PolarizationInput,
    ProductSetup,
    cone_dim,
    join_is_smooth,
    join_vectors,
    make_setup,
    primitive_polarization,
    stabilizer_order,
)
from .profile import (
    ExtremalProfile,
    ProfileTable,
    compute_profile,
    cscS_check,
    profile_table,
    solve_A,
)
from .twins import (
    ToricPotential,
    TwinReport,
    cp1_profile,
    cp1_twins,
    find_profile_twins,
    toric_csc_solutions,
    toric_weighted_scal,
    twin_weights,
)

__all__ = [
    "__version__",
    "ConeScanReport",
    "RayClassification",
    "classify_ray",
    "scan",
    "slope",
    "condition_numerator",
    "csc_condition",
    "csc_roots",
    "h_poly_p5",
    "DomainError",
    "InexactDivision",
    "InternalInconsistency",
    "LogarithmicTerm",
    "SingularSystem",
    "WrongWeight",
    "ZeroPolynomial",
    "MultiPoly",
    "RootInterval",
    "UniPoly",
    "exact_divide",
    "format_rational",
    "integrate_weighted_monomial",
    "is_positive_on_open",
    "isolate_roots",
    "parse_rational",
    "poly_gcd",
    "simplest_rational_in",
    "squarefree_part",
    "sturm_count_roots",
    "JoinSpec",
    "PolarizationInput",
    "ProductSetup",
    "cone_dim",
    "join_is_smooth",
    "join_vectors",
    "make_setup",
    "primitive_polarization",
    "stabilizer_order",
    "ExtremalProfile",
    "ProfileTable",
    "compute_profile",
    "cscS_check",
    "profile_table",
    "solve_A",
    "ToricPotential",
    "TwinReport",
    "cp1_profile",
    "cp1_twins",
    "find_profile_twins",
    "toric_csc_solutions",
    "toric_weighted_scal",
    "twin_weights",
]
