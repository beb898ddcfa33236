"""Shared builders and helpers for the test suite."""

from fractions import Fraction

from sasakijoin import UniPoly, exact_divide, make_setup
from sasakijoin.profile import cleared_beta, cleared_moment
# the worked examples are built once, by the reproduction suite
from sasakijoin.reproduce import (  # noqa: F401
    setup_moat,
    setup_no_csc,
    setup_positive_example,
    setup_resurrection,
    setup_three_roots,
    setup_twin_pair,
)

ONE_MINUS_Z2 = UniPoly((1, 0, -1))


def random_x(rng, max_den=20):
    den = rng.randint(3, max_den)
    return Fraction(rng.randint(1, den - 1), den)


def random_c(rng, max_den=20):
    den = rng.randint(2, max_den)
    return Fraction(rng.randint(-(den - 1), den - 1), den)


def random_rational(rng, lo=-10, hi=10, max_den=9):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_setup(rng, d=1, a=None):
    if a is None:
        a = random_rational(rng)
    return make_setup(d=d, a=a, genus_g2=rng.randint(0, 6),
                      degree_k=rng.randint(1, 6), x=random_x(rng))


def ode_rhs(setup, c, A1, A2):
    """Right-hand side of the profile ODE at the ray parameter c."""
    w = UniPoly((1, c))
    source = UniPoly((2 * setup.a + 2 * setup.s * setup.x, 2 * setup.a * setup.x))
    return w * w * source - UniPoly((A2, A1)) * UniPoly((1, setup.x))


def _antiderivative(poly):
    return UniPoly((0,) + tuple(coeff / (i + 1) for i, coeff in enumerate(poly.coeffs)))


def integral_formula_value(setup, c, A1, A2, z0):
    """F(z0) by the integral representation, pointwise.

    Dividing F by (cz+1)^(p-1) reduces the ODE to a bare second derivative,
    so F(z0) = (cz0+1)^(p-1) [ 2(1-x)(z0+1)/(1-c)^(p-1)
                               + int_{-1}^{z0} Q(t) (z0 - t) dt ]
    with Q(t) = rhs(t)/(ct+1)^(p+1).
    """
    c, z0 = Fraction(c), Fraction(z0)
    p, x = setup.p, setup.x
    rhs = ode_rhs(setup, c, A1, A2)
    head = 2 * (1 - x) * (z0 + 1) / (1 - c) ** (p - 1)
    if c == 0:
        anti = _antiderivative(rhs * UniPoly((z0, -1)))
        integral = anti(z0) - anti(-1)
    else:
        # substitute u = ct + 1; for p >= 5 the numerator degree stays below
        # p + 1, so the u-integrand is a Laurent polynomial with no 1/u term
        arg = UniPoly((-1 / c, 1 / c))
        rhs_u = UniPoly()
        for coeff in reversed(rhs.coeffs):
            rhs_u = rhs_u * arg + coeff
        numerator = rhs_u * UniPoly((c * z0 + 1, -1))
        lo, hi = 1 - c, c * z0 + 1
        total = Fraction(0)
        for j, b in enumerate(numerator.coeffs):
            e = j - (p + 1)
            assert e != -1 or b == 0, "logarithmic term in profile integral"
            if b:
                total += b * (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
        integral = total / c ** 2
    return (c * z0 + 1) ** (p - 1) * (head + integral)


def cleared_moment_cramer(setup):
    """(D, P1, P2) of the profile table by Cramer on the cleared moments.

    With m_r = (1-c^2)^p alpha(r, -(p+1)) and b_r = (1-c^2)^p beta(r, -(p-1)),
    the moment conditions [[m1, m0], [m2, m1]] (A1, A2) = 2 (b0, b1) give
    D = m1^2 - m0 m2, P1 = 2(b0 m1 - m0 b1) and P2 = 2(m1 b1 - b0 m2), each
    divided exactly by (1-c^2)^2.
    """
    p, x = setup.p, setup.x
    m0, m1, m2 = (cleared_moment(r, -(p + 1), x, p) for r in range(3))
    b0, b1 = (cleared_beta(setup, r, -(p - 1), p) for r in range(2))
    square = UniPoly((1, 0, -1)) ** 2
    return tuple(exact_divide(num, square) for num in (
        m1 * m1 - m0 * m2, 2 * (b0 * m1 - m0 * b1), 2 * (m1 * b1 - b0 * m2)))


def proportional(p, q):
    """True when q == t*p for a single nonzero rational t."""
    if p.degree != q.degree:
        return False
    ratio = None
    for i, coeff in enumerate(p.coeffs):
        other = q.coefficient(i)
        if coeff == 0:
            if other != 0:
                return False
            continue
        t = Fraction(other, coeff)
        if ratio is None:
            ratio = t
        elif ratio != t:
            return False
    return ratio is not None and ratio != 0


def reconstruct_weighted_scal(profile, setup):
    """Rebuild the weighted scalar curvature from the profile pieces.

    Assembles (1+xz) * Scal_{f,p} from the three curvature components and
    divides by (1+xz) exactly; the result is affine and must equal A1 z + A2.
    """
    c, F, p, x = profile.c, profile.F, profile.p, setup.x
    z = UniPoly.variable()
    f = c * z + 1
    scal_piece = 2 * setup.a * (1 + x * z) + 2 * setup.s * x - F.derivative().derivative()
    lap_piece = -c * F.derivative()
    grad_piece = c * c * F
    weighted = f * f * scal_piece - 2 * (p - 1) * f * lap_piece - p * (p - 1) * grad_piece
    return exact_divide(weighted, 1 + x * z)
