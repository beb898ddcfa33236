"""Exact arithmetic layer: rationals, polynomials, quadrature, linear solving, roots,
Bernstein positivity certificates."""

from .rationals import parse_rational, format_rational, decimal_str
from .unipoly import UniPoly, exact_divide, poly_gcd, squarefree_part
from .intpoly import IntPoly
from .multipoly import MultiPoly
from .linsolve import solve_exact
from .integrals import integrate_weighted_monomial
from .roots import (
    RootInterval,
    sturm_count_roots,
    is_positive_on_open,
    isolate_roots,
    simplest_rational_in,
    identify_rational_root,
)
from .bernstein import certify_positive

__all__ = [
    "parse_rational",
    "format_rational",
    "decimal_str",
    "UniPoly",
    "IntPoly",
    "exact_divide",
    "poly_gcd",
    "squarefree_part",
    "MultiPoly",
    "solve_exact",
    "integrate_weighted_monomial",
    "RootInterval",
    "sturm_count_roots",
    "is_positive_on_open",
    "isolate_roots",
    "simplest_rational_in",
    "identify_rational_root",
    "certify_positive",
]
