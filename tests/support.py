"""Shared builders and helpers for the test suite."""

import contextlib
import json
import sys
from fractions import Fraction
from math import comb

from sasakijoin import UniPoly, exact_divide, integrate_weighted_monomial, make_setup
from sasakijoin.exactmath.roots import (RootInterval, _prepare, _variations,
                                        identify_rational_root)
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


def reference_dump(doc):
    """The JSON text of a document as the standard library writes it, the
    oracle for render.dump_json."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def digit_limit(limit):
    """Run the block with sys.set_int_max_str_digits(limit); 0 lifts it."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)

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


def moment_condition(setup, c):
    """The cscS condition from six moments: the oracle of csc_condition."""
    p = setup.p
    return (alpha(setup, c, 1, -p) * beta(setup, c, 0, -(p - 1))
            - alpha(setup, c, 0, -p) * beta(setup, c, 1, -(p - 1)))


def moment_A(setup, c):
    """(A1, A2) by Cramer on the moment conditions
    [[alpha1, alpha0], [alpha2, alpha1]] (A1, A2) = 2 (beta0, beta1), with
    alpha_r = alpha(r, -(p+1)) and beta_r = beta(r, -(p-1)): the oracle of
    the endpoint solve's (A1, A2).  The determinant alpha1^2 - alpha0 alpha2
    is negative for |c| < 1 by Cauchy-Schwarz, the weight being positive."""
    p = setup.p
    m0, m1, m2 = (alpha(setup, c, r, -(p + 1)) for r in range(3))
    b0, b1 = (2 * beta(setup, c, r, -(p - 1)) for r in range(2))
    det = m1 * m1 - m0 * m2
    return (b0 * m1 - m0 * b1) / det, (m1 * b1 - b0 * m2) / det


def cleared_parts(r, q, k):
    """(U, V) with (1-c^2)^k * int_{-1}^{1} t^r (ct+1)^q (1+xt) dt = x U + V,
    in Fraction arithmetic: the oracle of cscs._cleared_parts over Z.

    With u = ct+1 the integrand is u^q (u-1)^r (xu + c - x) / c^(r+2) du on
    [1-c, 1+c]; each power u^(e-1) integrates to ((1+c)^e - (1-c)^e)/e, and
    cleared by (1-c^2)^k that is twice the odd part of (1+c)^(k+e) (1-c)^k,
    over e.  The removable c^(r+2) is divided out exactly.
    """
    ups = [(-1) ** (r - i) * comb(r, i) for i in range(r + 1)] + [0]
    size = 2 * k + q + r + 4
    U, V = [Fraction(0)] * size, [Fraction(0)] * size
    for j in range(r + 2):
        e = q + j + 1
        product = (UniPoly((1, 1)) ** (k + e) * UniPoly((1, -1)) ** k).coeffs
        for i in range(1, len(product), 2):
            U[i] += 2 * (ups[j - 1] - ups[j]) * product[i] / e
            V[i + 1] += 2 * ups[j] * product[i] / e
    monomial = UniPoly([0] * (r + 2) + [1])
    return exact_divide(UniPoly(U), monomial), exact_divide(UniPoly(V), monomial)


def cleared_moment(r, q, x, k):
    """(1-c^2)^k * int_{-1}^{1} t^r (ct+1)^q (1+xt) dt as a polynomial in c."""
    U, V = cleared_parts(r, q, k)
    return x * U + V


def cleared_beta(setup, r, q, k):
    """(1-c^2)^k * beta(setup, c, r, q) as a polynomial in c, for k + q >= 0."""
    a, x = setup.a, setup.x
    U, V = cleared_parts(r, q, k)
    boundary = (UniPoly((1, 1)) ** k * UniPoly((1, -1)) ** (k + q) * ((-1) ** r * (1 - x))
                + UniPoly((1, 1)) ** (k + q) * UniPoly((1, -1)) ** k * (1 + x))
    return a * x * U + (a + setup.s * x) * V + boundary


def moment_numerator(setup):
    """The cscS numerator N from the Fraction cleared moments, by the formula
    of the condition_numerator docstring."""
    p, k = setup.p, setup.p - 2
    V = cleared_moment(0, -(p - 1), setup.x, k)
    S = cleared_beta(setup, 0, -k, k)
    return (UniPoly((1, 0, -1)) * ((p - 1) * S.derivative() * V
                                   - (p - 2) * S * V.derivative())
            + UniPoly((0, 2 * k)) * S * V) / ((p - 1) * (p - 2))


def fraction_isolate_roots(p, lo, hi, width):
    """isolate_roots with its brackets held as Fractions: the reference for
    the library's bisection on integer numerators."""
    lo, hi, w, chain = _prepare(p, lo, hi, "isolation")
    width = Fraction(width)
    g = chain[-1]
    sf = w.exact_div(g.primitive()) if g.degree >= 1 else w
    out = []
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi), sf.homogeneous(lo))]
    while stack:
        a, b, va, vb, fa = stack.pop()
        while va - vb > 1 or (va - vb == 1 and b - a > width):
            m, k = (a + b) / 2, 3
            fm = sf.homogeneous(m)
            while fm == 0:
                m, k = a + (b - a) * Fraction(k, 2 * k + 1), k + 1
                fm = sf.homogeneous(m)
            if va - vb == 1:
                if (fm > 0) == (fa > 0):
                    a, fa = m, fm
                else:
                    b = m
            else:
                vm = _variations(chain, m)
                stack.append((m, b, vm, vb, fm))
                b, vb = m, vm
        if va - vb != 1:
            continue
        while a == lo or b == hi:
            m = (a + b) / 2
            fm = sf.homogeneous(m)
            if fm == 0:
                off = min(m - lo, hi - m, b - a) / 4
                a, b = m - off, m + off
                break
            if (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
        out.append(RootInterval(a, b, "exact",
                                exact_value=identify_rational_root(sf, a, b)))
    return out


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
