"""The constant-scalar-curvature condition along the c-line and its roots.

With the moments
    alpha(r, q) = int_{-1}^{1} t^r (ct+1)^q (1+xt) dt,
    beta(r, q) = a alpha(r, q) + s x alpha_0(r, q)
                 + (-1)^r (1-c)^q (1-x) + (1+c)^q (1+x),
alpha_0 being alpha at x = 0, the condition is
    alpha(1, -p) beta(0, -(p-1)) - alpha(0, -p) beta(1, -(p-1)),
a rational function of c whose denominator is (1 - c^2)^(2p-3).  Its
numerator N (condition_numerator) is derived in closed form from the
Einstein-Hilbert functional H = S^(p-1) / V^(p-2), whose critical points are
the cscS rays; for p = 5 it has a frozen closed form (h_poly_p5, up to the
constant 4/9).  N is the one route to the condition: csc_condition divides
N(c) by the denominator, in ints on the integer N over its scale, and
csc_roots isolates and identifies the roots of N in (-1, 1) with the
certified root machinery.

N is built over Z: _cleared_parts scales each cleared moment by E = lcm(|e|)
over its exponents e and divides out the removable c^(r+2) by a slice, and
the scales x_d and L of condition_numerator clear x, a x and a + s x, so N is
an integer polynomial over one known positive scale.
"""

from fractions import Fraction
from math import comb, lcm

from .errors import DomainError, InternalInconsistency, WrongWeight
from .exactmath import IntPoly, UniPoly, isolate_roots


def csc_condition(setup, c):
    """Exact value of the scalar quantity whose vanishing marks a cscS ray,
    N(c) / (1-c^2)^(2p-3) with N = condition_numerator(setup), for an int or
    Fraction c = n/m, |c| < 1.

    It reads the integer N over its scale (_integer_numerator) in ints: with
    e = 2p-3 and N_h = m^deg(N) N(n/m) (IntPoly.homogeneous), the value is
    N_h m^(2e - deg N) / (scale (m^2 - n^2)^e), one Fraction (deg N <= 2p-5
    < 2e)."""
    n, m = c.numerator, c.denominator
    if abs(n) >= m:
        raise DomainError(f"need |c| < 1, got c = {c}")
    N, scale = _integer_numerator(setup)
    e = 2 * setup.p - 3
    return Fraction(N.homogeneous(n, m) * m ** (2 * e - N.degree),
                    scale * (m * m - n * n) ** e)


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


def _binomial_product(n, k):
    """The integer coefficients of (1+c)^n (1-c)^k, lowest degree first."""
    minus = [(-1) ** j * comb(k, j) for j in range(k + 1)]
    out = [0] * (n + k + 1)
    for i in range(n + 1):
        ci = comb(n, i)
        for j, cj in enumerate(minus):
            out[i + j] += ci * cj
    return out


def _cleared_parts(r, q, k):
    """(E, U, V), E > 0 an int and U, V IntPolys, with
    E (1-c^2)^k int_{-1}^{1} t^r (ct+1)^q (1+xt) dt = x U + V.

    With u = ct+1 the integrand is u^q (u-1)^r (xu + c - x) / c^(r+2) du on
    [1-c, 1+c]; each power u^(e-1) integrates to ((1+c)^e - (1-c)^e)/e, and
    cleared by (1-c^2)^k that is twice the odd part of (1+c)^(k+e) (1-c)^k,
    over e.  E = lcm(|e|) clears every 1/e.  The callers keep r <= 2, every e
    nonzero and k+e >= 0, so all of it is polynomial: the c^(r+2) is
    removable, its low coefficients are checked to be zero, and dividing it
    out is a slice.
    """
    # coefficients of (u-1)^r; the trailing 0 also serves as ups[-1]
    ups = [(-1) ** (r - i) * comb(r, i) for i in range(r + 1)] + [0]
    es = [q + j + 1 for j in range(r + 2)]
    E = lcm(*es)
    size = 2 * k + q + r + 4
    U, V = [0] * size, [0] * size
    for j, e in enumerate(es):
        # u^j in (u-1)^r (xu + c - x) has coefficient x (ups[j-1] - ups[j]) + c ups[j]
        f = 2 * E // e
        product = _binomial_product(k + e, k)
        for i in range(1, len(product), 2):
            U[i] += f * (ups[j - 1] - ups[j]) * product[i]
            V[i + 1] += f * ups[j] * product[i]
    if any(U[:r + 2]) or any(V[:r + 2]):
        raise InternalInconsistency(f"cleared moment ({r}, {q}, {k}) has a pole at c = 0")
    return E, IntPoly(U[r + 2:]), IntPoly(V[r + 2:])


def condition_numerator(setup):
    """The polynomial N with csc_condition(c) * (1-c^2)^(2p-3) = N(c), exactly:
    the integer N of _integer_numerator over its scale, as a UniPoly."""
    N, scale = _integer_numerator(setup)
    return UniPoly(Fraction(v, scale) for v in N.coeffs)


def _integer_numerator(setup):
    """(N, scale): the integer polynomial N and the positive int scale with
    condition_numerator(setup) = N / scale.

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
    the scales of _cleared_parts for V~ and S~, E1 x_d V~ is an
    integer polynomial; with L the lcm of the denominators of a x, a + s x
    and x, so is E2 L S~, whose boundary part is
    L (1-x) (1+c)^k + L (1+x) (1-c)^k.  The bracket above, built from these,
    is N times the positive scale (p-1)(p-2) E1 E2 L x_d.  The checks read
    that integer N, times x_d at c = +-1: the endpoint values and
    deg N <= 2p-5 (the degree can fall below 2p-5, since the leading
    coefficient is affine in (a, s) and vanishes on a line).  The result is
    the integer N and its scale.
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
    return N, (p - 1) * (p - 2) * E1 * E2 * L * xd


def csc_roots(setup, width):
    """All roots of the cscS condition in (-1, 1), certified.

    Each root comes back as a RootInterval of width <= width strictly inside
    (-1, 1); exact_value holds the root when it is rational, and None proves
    it irrational.
    """
    return isolate_roots(condition_numerator(setup), -1, 1, width)
