"""The constant-scalar-curvature condition along the c-line and its roots.

The condition is a rational function of c whose denominator is
(1 - c^2)^(2p-3).  Its numerator N (condition_numerator) is derived in closed
form from the Einstein-Hilbert functional H = S^(p-1) / V^(p-2), whose
critical points are the cscS rays; for p = 5 it has a frozen closed form
(h_poly_p5, up to the constant 4/9).  The roots of N in (-1, 1) are then
isolated and identified by the certified root machinery.

N is built over Z: profile._cleared_parts scales each cleared moment by
E = lcm(|e|) over its exponents e and divides out the removable c^(r+2) by
a slice, and the scales x_d and L of condition_numerator clear x, a x and
a + s x, so N is an integer polynomial over one known positive scale.
"""

from fractions import Fraction
from math import comb, lcm

from .errors import DomainError, InternalInconsistency, WrongWeight
from .exactmath import IntPoly, UniPoly, isolate_roots
from .profile import _cleared_parts, alpha, beta


def csc_condition(setup, c):
    """Exact value of the scalar quantity whose vanishing marks a cscS ray."""
    c = Fraction(c)
    p = setup.p
    return (alpha(setup, c, 1, -p) * beta(setup, c, 0, -(p - 1))
            - alpha(setup, c, 0, -p) * beta(setup, c, 1, -(p - 1)))


def h_poly_p5(setup):
    """Closed-form numerator polynomial in c for weight p = 5.

    csc_condition(setup, c) * 9 (1-c^2)^7 / 4 equals this polynomial.
    """
    if setup.p != 5:
        raise WrongWeight(f"closed form requires p = 5, got p = {setup.p}")
    a, s, x = setup.a, setup.s, setup.x
    return UniPoly([
        3 * x * (s * x - 2),
        21 - 3 * a - 3 * s * x + 3 * x ** 2 + a * x ** 2,
        4 * x * (a - 9 - s * x),
        4 * (a + s * x + 6 * x ** 2 - a * x ** 2),
        x * (s * x - 6 - 4 * a),
        3 - a - s * x - 3 * x ** 2 + 3 * a * x ** 2,
    ])


def condition_numerator(setup):
    """The polynomial N with csc_condition(c) * (1-c^2)^(2p-3) = N(c), exactly.

    Derived from the Einstein-Hilbert functional (Boyer-Huang-Legendre-
    Tonnesen-Friedman, IMRN 2017).  With V = alpha(0, -(p-1)) and
    S = beta(0, -(p-2)), the identities d/dc alpha(0, q) = q alpha(1, q-1) and
    alpha(0, q+1) = c alpha(1, q) + alpha(0, q) (the same for beta) give
        csc_condition = ((p-1) S'V - (p-2) S V') / ((p-1)(p-2)),
    so cscS rays are the critical points of H = S^(p-1) / V^(p-2).  Let
    k = p-2, V~ = (1-c^2)^k V and S~ = (1-c^2)^k S, both polynomials; then
        N = [(1-c^2)((p-1) S~'V~ - (p-2) S~V~') + 2kc S~V~] / ((p-1)(p-2)).

    N never vanishes at c = +-1.  There 1-c^2 = 0, and of the cleared moment
    terms (1+-c)^(k+e) (1-+c)^k only those with k+e = 0 survive: one term of
    V~, none of the bulk part of S~.  So V~(+-1) = 2^k (1-+x)/k, the boundary
    part gives S~(+-1) = 2^k (1-+x), and
        N(+-1) = +-2 S~(+-1) V~(+-1) / (p-1) = +-K_p (1-+x)^2,
    K_p = 2^(2p-3)/((p-1)(p-2)).  Hence N has an odd number of roots in
    (-1, 1), counted with multiplicity.

    All of it is built over Z.  With x = x_n/x_d in lowest terms and E1, E2
    the scales of profile._cleared_parts for V~ and S~, E1 x_d V~ is an
    integer polynomial; with L the lcm of the denominators of a x, a + s x
    and x, so is E2 L S~, whose boundary part is
    L (1-x) (1+c)^k + L (1+x) (1-c)^k.  The bracket above, built from these,
    is N times the positive scale (p-1)(p-2) E1 E2 L x_d.  The checks read
    that integer N, times x_d at c = +-1: the endpoint values and
    deg N <= 2p-5 (the degree can fall below 2p-5, since the leading
    coefficient is affine in (a, s) and vanishes on a line).  The result is
    the integer N divided by its scale.
    """
    p, a, s, x = setup.p, setup.a, setup.s, setup.x
    k = p - 2
    xn, xd = x.numerator, x.denominator
    E1, U1, V1 = _cleared_parts(0, -(p - 1), k)
    E2, U2, V2 = _cleared_parts(0, -k, k)
    ax, asx = a * x, a + s * x
    L = lcm(ax.denominator, asx.denominator, xd)
    Lx = L * xn // xd
    boundary = IntPoly(comb(k, i) * (L - Lx + (-1) ** i * (L + Lx)) for i in range(k + 1))
    # E1 x_d V~ and E2 L S~
    V = xn * U1 + xd * V1
    S = (L * ax).numerator * U2 + (L * asx).numerator * V2 + E2 * boundary
    N = (IntPoly((1, 0, -1)) * ((p - 1) * S.derivative() * V - (p - 2) * S * V.derivative())
         + IntPoly((0, 2 * k)) * S * V)
    end = E1 * E2 * L * 2 ** (2 * p - 3)
    if (N.degree > 2 * p - 5 or xd * N.homogeneous(1) != end * (xd - xn) ** 2
            or xd * N.homogeneous(-1) != -end * (xd + xn) ** 2):
        raise InternalInconsistency(
            f"cscS numerator fails its degree or endpoint check at p={p}")
    scale = (p - 1) * (p - 2) * E1 * E2 * L * xd
    return UniPoly(Fraction(v, scale) for v in N.coeffs)


def csc_roots(setup, width):
    """All roots of the cscS condition in (-1, 1), certified.

    Each root comes back as a RootInterval of width <= width strictly inside
    (-1, 1); exact_value holds the root when it is rational, and None proves
    it irrational.
    """
    width = Fraction(width)
    if width <= 0:
        raise DomainError("width must be positive")
    return isolate_roots(condition_numerator(setup), -1, 1, width)
