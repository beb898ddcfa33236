"""Shared builders and helpers for the test suite."""

from fractions import Fraction

from sasakijoin import UniPoly, make_setup

ONE_MINUS_Z2 = UniPoly((1, 0, -1))


def setup_no_csc():
    # weight 5, s = -200, large negative a: no positive ray anywhere
    return make_setup(d=1, a=Fraction(-43137, 1337), genus_g2=101, degree_k=1,
                      x=Fraction(1, 2))


def setup_positive_example():
    # weight 5, s = -2, mildly negative a: positive rays exist
    return make_setup(d=1, a=Fraction(-2675, 497), genus_g2=2, degree_k=1,
                      x=Fraction(1, 2))


def setup_resurrection():
    # weight 6 companion of setup_no_csc: same s and x, shifted a
    return make_setup(d=2,
                      a=Fraction(125919069, 1574986) - Fraction(43137, 1337),
                      genus_g2=101, degree_k=1, x=Fraction(1, 2))


def setup_three_roots():
    # weight 5, s = -20/9, x = 9/10: condition polynomial factors over Q
    return make_setup(d=1, a=Fraction(419, 19), genus_g2=11, degree_k=9,
                      x=Fraction(9, 10))


def setup_moat(x):
    # weight 6 one-parameter family with s = -3 and a tuned so that c = x
    # solves the constant-curvature condition
    x = Fraction(x)
    a = 3 * (x ** 4 + 7) / ((1 - x ** 2) * (3 - x ** 2))
    return make_setup(d=2, a=a, genus_g2=4, degree_k=2, x=x)


def setup_twin_pair():
    # weight 5, s = -4, a = 19/3, x = 1/2: two rays share one profile
    return make_setup(d=1, a=Fraction(19, 3), genus_g2=3, degree_k=1,
                      x=Fraction(1, 2))


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
