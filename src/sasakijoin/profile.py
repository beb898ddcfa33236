"""Admissible momentum profiles for rays in the 2-dimensional sub-cone.

For a setup with fiber degree p and a ray parameter c in (-1, 1), the profile
F is the unique degree-p polynomial satisfying

    (cz+1)^2 F'' - 2(p-1) c (cz+1) F' + p(p-1) c^2 F
        = (cz+1)^2 (2a(1+xz) + 2sx) - (A1 z + A2)(1 + xz)

with F(+-1) = 0, F'(1) = -2(1+x), F'(-1) = 2(1-x), where (A1, A2) are fixed
first by two weighted moment conditions.  F comes in closed form from
integrating the ODE twice, and every profile is checked exactly against the
endpoint conditions and the ODE before being returned.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalInconsistency
from .exactmath import UniPoly, integrate_weighted_monomial, solve_2x2
from .joinsetup import ProductSetup


@dataclass(frozen=True)
class ExtremalProfile:
    """Solved profile data for one ray: parameter c, polynomial F, and the
    affine weighted-scalar coefficients A1, A2."""

    c: Fraction
    F: UniPoly
    A1: Fraction
    A2: Fraction
    p: int


def alpha(setup, c, r, q):
    """Moment integral of t^r (ct+1)^q against the measure (1+xt) dt on [-1, 1]."""
    return integrate_weighted_monomial(r, q, Fraction(c), setup.x)


def beta(setup, c, r, q):
    """Weighted boundary-and-curvature moment entering the normalization."""
    c = Fraction(c)
    x = setup.x
    bulk = setup.a * integrate_weighted_monomial(r, q, c, x)
    surface = setup.s * x * integrate_weighted_monomial(r, q, c, Fraction(0))
    boundary = (-1) ** r * (1 - c) ** q * (1 - x) + (1 + c) ** q * (1 + x)
    return bulk + surface + boundary


def solve_A(setup, c):
    """The affine coefficients (A1, A2) of the weighted scalar curvature.

    Raises SingularSystem (with the offending determinant attached) if the
    2x2 moment matrix degenerates.
    """
    c = Fraction(c)
    p = setup.p
    qa = -(p + 1)
    qb = -(p - 1)
    alpha1 = alpha(setup, c, 1, qa)
    return solve_2x2(
        alpha1, alpha(setup, c, 0, qa),
        alpha(setup, c, 2, qa), alpha1,
        2 * beta(setup, c, 0, qb), 2 * beta(setup, c, 1, qb),
    )


def _ode_rhs(setup, c, A1, A2):
    z = UniPoly.variable()
    w = c * z + 1
    source = w * w * (2 * setup.a * (1 + setup.x * z) + 2 * setup.s * setup.x)
    return source - (A1 * z + A2) * (1 + setup.x * z)


def _apply_ode_operator(F, p, c):
    z = UniPoly.variable()
    w = c * z + 1
    return (w * w * F.derivative().derivative()
            - 2 * (p - 1) * c * w * F.derivative()
            + p * (p - 1) * c * c * F)


def _compose_affine(poly, scale, shift):
    """poly(scale*u + shift) as a polynomial in u."""
    acc = []
    for coeff in reversed(poly.coeffs):
        # acc * (shift + scale*u) + coeff, on the coefficient list
        acc = [shift * lo + scale * hi for lo, hi in zip(acc + [0], [0] + acc)]
        acc[0] += coeff
    return UniPoly(acc)


def _antiderivative(poly):
    return UniPoly((Fraction(0),) + tuple(
        Fraction(coeff, i + 1) for i, coeff in enumerate(poly.coeffs)))


def _closed_form(setup, c, rhs):
    """The profile F, by integrating the ODE twice.

    The operator maps (cz+1)^m to c^2 (m-p)(m-p+1) (cz+1)^m, so its kernel is
    spanned by (cz+1)^p and (cz+1)^(p-1); dividing F by (cz+1)^(p-1) reduces
    the ODE to a bare second derivative, and the endpoint data at z = -1 give
        F(z) = (cz+1)^(p-1) [ 2(1-x)(z+1)/(1-c)^(p-1)
                              + int_{-1}^z Q(t) (z - t) dt ]
    with Q(t) = rhs(t)/(ct+1)^(p+1).
    """
    p, x = setup.p, setup.x
    z = UniPoly.variable()
    if c == 0:
        i1, i2 = _antiderivative(rhs), _antiderivative(z * rhs)
        return 2 * (1 - x) * (z + 1) + z * (i1 - i1(-1)) - (i2 - i2(-1))
    # in u = cz+1 the integrand is a Laurent polynomial; deg rhs <= 3 < p-1,
    # so every power integrates to a power and no log term can occur
    b = _compose_affine(rhs, 1 / c, -1 / c).coeffs
    u0, c2 = 1 - c, c * c
    lam = 2 * (1 - x) / (c * u0 ** (p - 1))
    k1 = sum(bj * u0 ** (j - p) / (j - p) for j, bj in enumerate(b))
    k2 = sum(bj * u0 ** (j - p + 1) / (j - p + 1) for j, bj in enumerate(b))
    g = [bj / ((j - p) * (j - p + 1) * c2) for j, bj in enumerate(b)]
    g += [Fraction(0)] * (p + 1 - len(g))
    g[p - 1] += k2 / c2 - lam * u0
    g[p] += lam - k1 / c2
    return _compose_affine(UniPoly(g), c, Fraction(1))


def compute_profile(setup, c):
    """The profile of the ray at parameter c, in closed form and verified.

    The endpoint conditions and the ODE are checked exactly on the result.
    They determine F uniquely for |c| < 1: the only kernel element
    (cz+1)^(p-1) (mz + n) vanishing at z = +-1 is zero.
    """
    if not isinstance(setup, ProductSetup):
        raise DomainError("compute_profile needs a ProductSetup")
    c = Fraction(c)
    if abs(c) >= 1:
        raise DomainError(f"ray parameter must satisfy |c| < 1, got {c}")
    p, x = setup.p, setup.x
    A1, A2 = solve_A(setup, c)
    rhs = _ode_rhs(setup, c, A1, A2)
    F = _closed_form(setup, c, rhs)

    dF = F.derivative()
    if (F(1) != 0 or F(-1) != 0
            or dF(1) != -2 * (1 + x) or dF(-1) != 2 * (1 - x)):
        raise InternalInconsistency(f"endpoint conditions violated at c={c}")
    if _apply_ode_operator(F, p, c) != rhs:
        raise InternalInconsistency(f"ODE residual nonzero at c={c}")
    return ExtremalProfile(c=c, F=F, A1=A1, A2=A2, p=p)


def cscS_check(profile):
    """True iff the ray at this profile has constant scalar curvature."""
    return profile.A1 - profile.c * profile.A2 == 0
