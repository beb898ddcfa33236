"""Admissible momentum profiles for rays in the 2-dimensional sub-cone.

For a setup with fiber degree p and a ray parameter c in (-1, 1), the profile
F is the unique degree-p polynomial satisfying

    (cz+1)^2 F'' - 2(p-1) c (cz+1) F' + p(p-1) c^2 F
        = (cz+1)^2 (2a(1+xz) + 2sx) - (A1 z + A2)(1 + xz)

with F(+-1) = 0, F'(1) = -2(1+x), F'(-1) = 2(1-x), where (A1, A2) are fixed
first by two weighted moment conditions.  Two routes give the same profiles:

- compute_profile solves one ray: F comes in closed form from integrating the
  ODE twice, and is checked exactly against the endpoint conditions and the
  ODE before being returned.
- profile_table serves every ray of one setup: F(z; c) = P(z, c)/D(c) with
  (A1, A2) = (P1(c), P2(c))/D(c), where D, P1 and P2 come from the moments
  cleared of their denominators (cleared_moment, cleared_beta) and P is
  interpolated in c from closed forms.  The table is certified once, by the
  ODE and endpoint identities in Q[c][z], and then read at each ray in
  integer arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import DomainError, InternalInconsistency
from .exactmath import (UniPoly, exact_divide, integrate_weighted_monomial,
                        interpolate, solve_2x2)
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
    """(U, V) with (1-c^2)^k * int_{-1}^{1} t^r (ct+1)^q (1+xt) dt = x U + V.

    With u = ct+1 the integrand is u^q (u-1)^r (xu + c - x) / c^(r+2) du on
    [1-c, 1+c]; each power u^(e-1) integrates to ((1+c)^e - (1-c)^e)/e, and
    cleared by (1-c^2)^k that is twice the odd part of (1+c)^(k+e) (1-c)^k,
    over e.  The callers keep r <= 2, every e nonzero and k+e >= 0, so all of
    it is polynomial.  The removable c^(r+2) is divided out exactly.
    """
    # coefficients of (u-1)^r; the trailing 0 also serves as ups[-1]
    ups = [(-1) ** (r - i) * comb(r, i) for i in range(r + 1)] + [0]
    size = 2 * k + q + r + 4
    U, V = [Fraction(0)] * size, [Fraction(0)] * size
    for j in range(r + 2):
        # u^j in (u-1)^r (xu + c - x) has coefficient x (ups[j-1] - ups[j]) + c ups[j]
        e = q + j + 1
        product = _binomial_product(k + e, k)
        for i in range(1, len(product), 2):
            U[i] += Fraction(2 * (ups[j - 1] - ups[j]) * product[i], e)
            V[i + 1] += Fraction(2 * ups[j] * product[i], e)
    monomial = UniPoly([0] * (r + 2) + [1])
    return exact_divide(UniPoly(U), monomial), exact_divide(UniPoly(V), monomial)


def cleared_moment(r, q, x, k):
    """(1-c^2)^k * int_{-1}^{1} t^r (ct+1)^q (1+xt) dt as a polynomial in c."""
    U, V = _cleared_parts(r, q, k)
    return x * U + V


def cleared_beta(setup, r, q, k):
    """(1-c^2)^k * beta(setup, c, r, q) as a polynomial in c, for k + q >= 0."""
    a, x = setup.a, setup.x
    U, V = _cleared_parts(r, q, k)
    product = _binomial_product(k + q, k)
    boundary = UniPoly(coeff * ((1 + x) + (-1) ** (r + i) * (1 - x))
                       for i, coeff in enumerate(product))
    return a * x * U + (a + setup.s * x) * V + boundary


def solve_A(setup, c):
    """The affine coefficients (A1, A2) of the weighted scalar curvature.

    The 2x2 moment matrix [[alpha1, alpha0], [alpha2, alpha1]] never
    degenerates for |c| < 1: the weight (ct+1)^(-(p+1)) (1+xt) is positive on
    (-1, 1), so its determinant alpha1^2 - alpha0 alpha2 is negative by
    Cauchy-Schwarz, and solve_2x2's SingularSystem cannot arise here.
    ProfileTable divides by the cleared determinant D for the same reason.
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


class ProfileTable:
    """Every profile of one setup, as F(z; c) = P(z, c)/D(c) with (A1, A2) =
    (P1(c), P2(c))/D(c), certified on construction.

    D, P1 and P2 are polynomials in c, and P is the list of the z-coefficients
    P_0..P_p of P(z, c), each a polynomial in c.  The constructor checks, as
    identities in Q[c]:
      - the ODE coefficient by coefficient: for k = 0..p,
            c^2 (k-p)(k-p+1) P_k + 2c (k+1)(k+1-p) P_(k+1) + (k+2)(k+1) P_(k+2)
        is the z^k coefficient of
            D (cz+1)^2 (2a(1+xz) + 2sx) - (P1 z + P2)(1 + xz);
      - P(+-1, c) = 0;
      - P_z(+-1, c) = -+2(1+-x) D,
    and raises InternalInconsistency if one fails.

    These identities make the table exact at every |c| < 1.  D = (1-c^2)^(2p-2)
    (alpha1^2 - alpha0 alpha2), with alpha_r = alpha(r, -(p+1)); the weight
    (ct+1)^(-(p+1)) (1+xt) is positive on (-1, 1), so alpha0 alpha2 > alpha1^2
    by Cauchy-Schwarz and D(c) < 0.  Dividing the identities at c by D(c),
    F = P(., c)/D(c) is a polynomial of degree <= p that meets the ODE with
    (A1, A2) = (P1, P2)/D and all four endpoint conditions.  Those determine
    F as in compute_profile: the ODE is regular on [-1, 1], so F(-1) and
    F'(-1) fix F for given (A1, A2), and the conditions at z = 1 fix (A1, A2),
    since by the closed form a change delta of (A1, A2) moves (F(1), F'(1))
    through the moment matrix [[alpha1, alpha0], [alpha2, alpha1]], whose
    determinant is the nonzero D(c)/(1-c^2)^(2p-2).

    For evaluation every polynomial is scaled by one common integer, so a
    ray c = n/m costs one integer dot product with n^j m^(N-j) per polynomial
    (N the largest degree) and one division by the value of D per output.
    """

    def __init__(self, setup, D, P1, P2, P):
        self.setup = setup
        self.D, self.P1, self.P2, self.P = D, P1, P2, tuple(P)
        self._certify()
        polys = (D, P1, P2) + self.P
        self._degree = max(poly.degree for poly in polys)
        scale = lcm(*(coeff.denominator for poly in polys for coeff in poly.coeffs))
        rows = [[int(coeff * scale) for coeff in poly.coeffs] for poly in polys]
        content = gcd(*(v for row in rows for v in row))
        self._rows = [[v // content for v in row] for row in rows]

    def _certify(self):
        setup, D, P1, P2 = self.setup, self.D, self.P1, self.P2
        p, a, s, x = setup.p, setup.a, setup.s, setup.x
        zero = UniPoly()
        P = list(self.P) + [zero, zero]
        c1, c2 = UniPoly((0, 1)), UniPoly((0, 0, 1))
        # z-coefficients of (cz+1)^2 (2a(1+xz) + 2sx) and (A1 z + A2)(1 + xz)
        s0, s1 = 2 * a + 2 * s * x, 2 * a * x
        source = [UniPoly((s0,)), UniPoly((s1, 2 * s0)), UniPoly((0, 2 * s1, s0)),
                  UniPoly((0, 0, s1))] + [zero] * (p - 3)
        affine = [P2, P1 + x * P2, x * P1] + [zero] * (p - 2)
        for k in range(p + 1):
            lhs = ((k - p) * (k - p + 1) * c2 * P[k]
                   + 2 * (k + 1) * (k + 1 - p) * c1 * P[k + 1]
                   + (k + 2) * (k + 1) * P[k + 2])
            if lhs != D * source[k] - affine[k]:
                raise InternalInconsistency(
                    f"profile table fails the ODE at z^{k} for p={p}")
        values = [sum((sign ** k * Pk for k, Pk in enumerate(P)), zero)
                  for sign in (1, -1)]
        slopes = [sum((sign ** (k + 1) * k * Pk for k, Pk in enumerate(P)), zero)
                  for sign in (1, -1)]
        if any(values) or slopes != [-2 * (1 + x) * D, 2 * (1 - x) * D]:
            raise InternalInconsistency(
                f"profile table fails an endpoint condition for p={p}")

    def profile_at(self, c):
        """The profile of the ray at parameter c, read off the table."""
        c = Fraction(c)
        if abs(c) >= 1:
            raise DomainError(f"ray parameter must satisfy |c| < 1, got {c}")
        n, m, N = c.numerator, c.denominator, self._degree
        weights = [n ** j * m ** (N - j) for j in range(N + 1)]
        d, a1, a2, *coeffs = (sum(v * w for v, w in zip(row, weights))
                              for row in self._rows)
        return ExtremalProfile(c=c, F=UniPoly(Fraction(v, d) for v in coeffs),
                               A1=Fraction(a1, d), A2=Fraction(a2, d),
                               p=self.setup.p)


def profile_table(setup):
    """The certified ProfileTable of a setup.

    Let m_r = (1-c^2)^p alpha(r, -(p+1)) and b_r = (1-c^2)^p beta(r, -(p-1)),
    all polynomials in c.  Cramer on [[m1, m0], [m2, m1]] (A1, A2) = 2 (b0, b1)
    gives D = (m1^2 - m0 m2)/(1-c^2)^2 of degree 2p-6, P1 = 2(b0 m1 - m0 b1)
    and P2 = 2(m1 b1 - b0 m2), both over (1-c^2)^2.  P(z, c) = D(c) F(z; c)
    has degree <= 2p-6 in c on every setup tried (p = 5..9), so it is
    interpolated from the closed form at the 2p-5 nodes i/(2p), |i| <= p-3.
    The bound is not proven: a setup that broke it would fail the
    certificate and raise InternalInconsistency, not get a wrong table.
    """
    if not isinstance(setup, ProductSetup):
        raise DomainError("profile_table needs a ProductSetup")
    p, x = setup.p, setup.x
    m0, m1, m2 = (cleared_moment(r, -(p + 1), x, p) for r in range(3))
    b0, b1 = (cleared_beta(setup, r, -(p - 1), p) for r in range(2))
    square = UniPoly((1, 0, -1)) ** 2
    D = exact_divide(m1 * m1 - m0 * m2, square)
    P1 = exact_divide(2 * (b0 * m1 - m0 * b1), square)
    P2 = exact_divide(2 * (m1 * b1 - b0 * m2), square)
    nodes = [Fraction(i, 2 * p) for i in range(3 - p, p - 2)]
    rows = []
    for c in nodes:
        d = D(c)
        F = _closed_form(setup, c, _ode_rhs(setup, c, P1(c) / d, P2(c) / d))
        rows.append(tuple(d * F.coefficient(k) for k in range(p + 1)))
    return ProfileTable(setup, D, P1, P2, interpolate(nodes, rows))


def cscS_check(profile):
    """True iff the ray at this profile has constant scalar curvature."""
    return profile.A1 - profile.c * profile.A2 == 0
