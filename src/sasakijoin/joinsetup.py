"""Input data for the geometric constructions.

Two independent kinds of input live here: the exact parameter bundle driving
the profile ODE (ProductSetup), and the integer arithmetic of quotient joins
(smoothness, cone dimension, distinguished vectors, polarization scaling).
"""

from dataclasses import dataclass, field
import math
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DomainError
from .exactmath import parse_rational


@dataclass(frozen=True)
class ProductSetup:
    """Parameters for the fiber-bundle construction over a product base.

    d: complex dimension of the first factor (>= 1)
    a: transverse scalar curvature parameter of the first factor (any rational)
    genus_g2: genus of the Riemann-surface second factor (>= 0)
    degree_k: twisting degree (>= 1)
    x: cone coordinate in the open unit interval, 0 < x < 1

    Derived, not passed:
    s: scalar curvature of the second factor, 2*(1 - genus_g2)/degree_k
    p: fiber polynomial degree, d + 4 (so always >= 5)
    """

    d: int
    a: Fraction
    genus_g2: int
    degree_k: int
    s: Fraction = field(init=False)
    x: Fraction
    p: int = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.degree_k, int) and self.degree_k >= 1):
            raise DomainError(f"degree must be an integer >= 1, got {self.degree_k!r}")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise DomainError(f"d must be an integer >= 1, got {self.d!r}")
        if not (isinstance(self.genus_g2, int) and self.genus_g2 >= 0):
            raise DomainError(f"genus must be an integer >= 0, got {self.genus_g2!r}")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "s", Fraction(2 * (1 - self.genus_g2), self.degree_k))
        object.__setattr__(self, "x", Fraction(self.x))
        if not (0 < self.x < 1):
            raise DomainError(f"x must satisfy 0 < x < 1, got {self.x}")
        object.__setattr__(self, "p", self.d + 4)


def make_setup(d, a, genus_g2, degree_k, x):
    return ProductSetup(d=d, a=parse_rational(a), genus_g2=genus_g2,
                        degree_k=degree_k, x=parse_rational(x))


@dataclass(frozen=True)
class JoinSpec:
    """Integer data of a quotient join: leaf holonomy orders and join weights.

    l1, l2 are the positive coprime join weights; order1, order2 are the
    maximal orbifold structure-group orders of the two factors.
    """

    l1: int
    l2: int
    order1: int
    order2: int

    def __post_init__(self):
        for name, v in (("l1", self.l1), ("l2", self.l2),
                        ("order1", self.order1), ("order2", self.order2)):
            if not (isinstance(v, int) and v >= 1):
                raise DomainError(f"{name} must be a positive integer, got {v!r}")
        if math.gcd(self.l1, self.l2) != 1:
            raise DomainError(f"join weights must be coprime, got ({self.l1}, {self.l2})")


def join_is_smooth(spec):
    """The quotient join is smooth iff gcd(order1*l2, order2*l1) == 1."""
    return math.gcd(spec.order1 * spec.l2, spec.order2 * spec.l1) == 1


def stabilizer_order(spec, m1, m2):
    """Order of the stabilizer at a leaf pair with holonomy orders (m1, m2).

    m1, m2 must divide the respective maximal orders.  The circle action
    rotates the first factor by l2 and the second by -l1 times the angle, so
    the points fixed simultaneously form a cyclic group of the stated order.
    """
    if m1 < 1 or m2 < 1 or spec.order1 % m1 or spec.order2 % m2:
        raise DomainError(f"holonomy orders ({m1}, {m2}) must divide "
                          f"({spec.order1}, {spec.order2})")
    return math.gcd(m1 * spec.l2, m2 * spec.l1)


def cone_dim(dim1, dim2):
    """Dimension of the cone of compatible rotation axes on the join."""
    if dim1 < 1 or dim2 < 1:
        raise DomainError("cone dimensions must be >= 1")
    return dim1 + dim2 - 1


def join_vectors(l1, l2):
    """Distinguished vectors of the 2-dimensional sub-cone of a join.

    Returns a dict with the normalized axis vector ('reeb'), the generator of
    the extra circle ('lvec'), and the integer weight vector ('contact').
    """
    if not (isinstance(l1, int) and isinstance(l2, int) and l1 >= 1 and l2 >= 1):
        raise DomainError(f"join weights must be positive integers, got ({l1!r}, {l2!r})")
    if math.gcd(l1, l2) != 1:
        raise DomainError(f"join weights must be coprime, got ({l1}, {l2})")
    return {
        "reeb": (Fraction(1, 2 * l1), Fraction(1, 2 * l2)),
        "lvec": (Fraction(1, 2 * l1), Fraction(-1, 2 * l2)),
        "contact": (l1, l2),
    }


@dataclass(frozen=True)
class PolarizationInput:
    """An integral class to scale to a primitive polarization.

    class_coeffs are the integer coefficients on a fixed basis; ke_index is
    the proportionality constant against the canonical class when the input
    is a multiple of it (negative for the Fano-type sign convention), and d
    the complex dimension, both optional and only used together.
    """

    class_coeffs: Tuple[Fraction, ...]
    ke_index: Optional[int] = None
    d: Optional[int] = None


def primitive_polarization(inp):
    """Scale a rational class to its primitive integral generator.

    Returns a dict with 'primitive' (nonnegative integer coefficients, gcd 1)
    and 'scale' (rational with sign carried, scale * primitive == input).
    When ke_index and d are supplied, also the join weights (l1, l2) of the
    canonically polarized join: l1 = -I/g, l2 = (d+1)/g with
    g = gcd(d+1, -I).
    """
    try:
        coeffs = tuple(Fraction(v) for v in inp.class_coeffs)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"class coefficients must be rational: {exc}") from exc
    if not coeffs:
        raise DomainError("class coefficients must be a nonempty tuple")
    if all(v == 0 for v in coeffs):
        raise DomainError("zero class cannot be polarized")
    nonzero = [v for v in coeffs if v != 0]
    if any(v > 0 for v in nonzero) and any(v < 0 for v in nonzero):
        raise DomainError("mixed-sign class is not a polarization")
    common_den = math.lcm(*[v.denominator for v in coeffs])
    ints = [abs(v) * common_den for v in coeffs]
    g = math.gcd(*[int(v) for v in ints])
    sign = 1 if nonzero[0] > 0 else -1
    primitive = tuple(int(v) // g for v in ints)
    out = {"primitive": primitive, "scale": Fraction(sign * g, common_den)}
    if inp.ke_index is not None:
        if inp.d is None:
            raise DomainError("ke_index needs d")
        neg_index = -inp.ke_index
        if neg_index <= 0:
            raise DomainError("ke_index must be negative for this scaling")
        shared = math.gcd(inp.d + 1, neg_index)
        out["l1"] = neg_index // shared
        out["l2"] = (inp.d + 1) // shared
    return out
