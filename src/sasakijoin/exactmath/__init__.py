"""Exact arithmetic layer: rationals, polynomials, quadrature, linear solving, roots."""

from .rationals import Rational, parse_rational, format_rational, decimal_str
from .unipoly import UniPoly, exact_divide, poly_gcd, squarefree_part
from .intpoly import IntPoly
from .multipoly import MultiPoly
from .linsolve import solve_exact, solve_2x2
from .integrals import integrate_weighted_monomial
from .roots import (
    RootInterval,
    sturm_count_roots,
    is_positive_on_open,
    isolate_roots,
    simplest_rational_in,
    identify_rational_root,
)

__all__ = [
    "Rational",
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
    "solve_2x2",
    "integrate_weighted_monomial",
    "RootInterval",
    "sturm_count_roots",
    "is_positive_on_open",
    "isolate_roots",
    "simplest_rational_in",
    "identify_rational_root",
]
