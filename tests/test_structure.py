"""Structure facts behind the profile table, checked with sympy as the kernel.

For each setup the profile is one bivariate table F(z; c) = P(z, c)/D(c),
with deg_z P = p, deg_c P <= 2p-6 and D of degree 2p-6 without a root in
[-1, 1].  Here sympy derives the moment polynomials, D and the Cramer
numerators P1, P2 on its own, and re-checks the ODE and the endpoint
conditions on the library's table.  It also builds the cscS numerator N from
its own cleared V~ and S~ (F7), and checks that condition_numerator returns
that N, that the table carries it, P1 - c P2 = 2(1-c^2) N (F10), and its end
values N(+-1) = +-K_p (1-+x)^2 (F2).  That D never vanishes inside the cone is
proven for every p in the profile module docstring: the table's D is minus
the endpoint determinant, and a kernel vector of the endpoint system would be
a nonzero solution with zero data, which its Gram argument rules out.  The
root count below also covers the endpoints c = +-1.

F22, proven in the profile._endpoint_solve docstring, is checked twice: with
symbolic (a, s), D is free of them and P1, P2 are affine in them; and on the
library's tables at four (a, s) points, the fourth an affine combination of
the other three, D is one polynomial and every other row the same
combination.
"""

from fractions import Fraction

import pytest
import sympy as sp

from sasakijoin import condition_numerator, make_setup, profile_table

F = Fraction
c, u, z = sp.symbols("c u z")


def _sym(poly):
    """A library UniPoly in c as a sympy Poly."""
    return sp.Poly(sum((sp.Rational(q.numerator, q.denominator) * c ** i
                        for i, q in enumerate(poly.coeffs)), sp.Integer(0)), c)


def _cleared_moment(r, q, x, k):
    """(1-c^2)^k int_{-1}^{1} t^r (ct+1)^q (1+xt) dt as a sympy Poly in c.

    With u = ct+1 the integrand is u^q (u-1)^r (xu + c - x)/c^(r+2) du.
    """
    total = sp.Poly(0, c)
    for (j,), coeff in sp.Poly(sp.expand((u - 1) ** r * (x * u + c - x)), u).terms():
        e = q + j + 1
        total += sp.Poly(coeff * ((1 + c) ** (k + e) * (1 - c) ** k
                                  - (1 - c) ** (k + e) * (1 + c) ** k) / e, c)
    return total.exquo(sp.Poly(c ** (r + 2), c))


def _cleared_beta(a, s, x, r, q, k):
    """(1-c^2)^k beta(r, q): bulk, surface and boundary moments."""
    boundary = sp.Poly((-1) ** r * (1 - x) * (1 - c) ** (k + q) * (1 + c) ** k
                       + (1 + x) * (1 + c) ** (k + q) * (1 - c) ** k, c)
    return (_cleared_moment(r, q, x, k) * a + _cleared_moment(r, q, 0, k) * (s * x)
            + boundary)


@pytest.mark.parametrize("p", [5, 6, 7])
@pytest.mark.parametrize("x", [F(1, 3), F(1, 2), F(9, 10)])
def test_profile_table_structure(p, x):
    setup = make_setup(d=p - 4, a=F(7, 3), genus_g2=2, degree_k=3, x=x)
    table = profile_table(setup)
    xs, a, s = sp.Rational(x.numerator, x.denominator), sp.Rational(7, 3), sp.Rational(-2, 3)
    assert setup.s == F(-2, 3)

    m0, m1, m2 = (_cleared_moment(r, -(p + 1), xs, p) for r in range(3))
    b0, b1 = (_cleared_beta(a, s, xs, r, -(p - 1), p) for r in range(2))
    square = sp.Poly((1 - c ** 2) ** 2, c)
    D = (m1 ** 2 - m0 * m2).exquo(square)
    P1 = (2 * (b0 * m1 - m0 * b1)).exquo(square)
    P2 = (2 * (m1 * b1 - b0 * m2)).exquo(square)
    assert (_sym(table.D), _sym(table.P1), _sym(table.P2)) == (D, P1, P2)
    assert D.degree() == 2 * p - 6
    assert D.count_roots(-1, 1) == 0

    P = sp.Poly(sum(_sym(Pk).as_expr() * z ** k for k, Pk in enumerate(table.P)), z, c)
    assert P.degree(z) == p
    assert P.degree(c) <= 2 * p - 6

    def lift(expr):
        return sp.Poly(expr, z, c)

    w, Pz = lift(c * z + 1), P.diff(z)
    ode = (w ** 2 * Pz.diff(z) - w * Pz * (2 * (p - 1)) * lift(c)
           + P * lift(p * (p - 1) * c ** 2)
           - lift(D.as_expr() * (c * z + 1) ** 2 * (2 * a * (1 + xs * z) + 2 * s * xs))
           + lift((P1.as_expr() * z + P2.as_expr()) * (1 + xs * z)))
    assert ode.is_zero
    assert P.eval(z, 1).is_zero and P.eval(z, -1).is_zero
    assert Pz.eval(z, 1) == D * (-2 * (1 + xs))
    assert Pz.eval(z, -1) == D * (2 * (1 - xs))

    # F7: N from the cleared V~ = (1-c^2)^k V and S~ = (1-c^2)^k S, k = p-2
    k = p - 2
    V = _cleared_moment(0, -(p - 1), xs, k)
    S = _cleared_beta(a, s, xs, 0, -k, k)
    N = ((sp.Poly(1 - c ** 2, c) * ((p - 1) * S.diff(c) * V - (p - 2) * S * V.diff(c))
          + sp.Poly(2 * k * c, c) * S * V) * sp.Rational(1, (p - 1) * (p - 2)))
    assert _sym(condition_numerator(setup)) == N
    # F10: the table carries N, so A1 - c A2 = 0 on a ray is N(c) = 0
    assert P1 - sp.Poly(c, c) * P2 == sp.Poly(2 * (1 - c ** 2), c) * N
    # F2: N(+-1) = +-K_p (1-+x)^2, proven in the condition_numerator docstring
    K = sp.Rational(2 ** (2 * p - 3), (p - 1) * (p - 2))
    assert (N.eval(1), N.eval(-1)) == (K * (1 - xs) ** 2, -K * (1 + xs) ** 2)


@pytest.mark.parametrize("p", [5, 6, 7])
@pytest.mark.parametrize("x", [F(1, 3), F(1, 2), F(9, 10)])
def test_the_table_is_affine_in_a_and_s(p, x):
    # F22, proven in the profile._endpoint_solve docstring: for fixed (p, x),
    # D is free of (a, s) and every other row is affine in them
    a, s = sp.symbols("a s")
    xs = sp.Rational(x.numerator, x.denominator)
    m0, m1, m2 = (_cleared_moment(r, -(p + 1), xs, p) for r in range(3))
    b0, b1 = (_cleared_beta(a, s, xs, r, -(p - 1), p) for r in range(2))
    square = sp.Poly((1 - c ** 2) ** 2, c)
    D = (m1 ** 2 - m0 * m2).exquo(square)
    P1 = (2 * (b0 * m1 - m0 * b1)).exquo(square)
    P2 = (2 * (m1 * b1 - b0 * m2)).exquo(square)
    assert D.as_expr().free_symbols == {c}
    for row in (P1, P2):
        assert sp.Poly(row.as_expr(), a, s).total_degree() == 1

    # the library's tables at (a, s) = (a_i, 2(1-g2_i)/k_i); the fourth point
    # is 3 Q_1 - Q_2 - Q_3
    points = [(F(7, 3), 2, 3), (F(-5), 0, 1), (F(1, 2), 1, 1), (F(23, 2), 3, 1)]
    tables = [profile_table(make_setup(d=p - 4, a=ai, genus_g2=g2, degree_k=k, x=x))
              for ai, g2, k in points]
    assert [(t.setup.a, t.setup.s) for t in tables] == [
        (F(7, 3), F(-2, 3)), (F(-5), F(2)), (F(1, 2), F(0)), (F(23, 2), F(-4))]
    for t in tables:
        at = {a: sp.Rational(t.setup.a.numerator, t.setup.a.denominator),
              s: sp.Rational(t.setup.s.numerator, t.setup.s.denominator)}
        assert _sym(t.D) == D
        assert (_sym(t.P1), _sym(t.P2)) == tuple(sp.Poly(row.as_expr().subs(at), c)
                                                 for row in (P1, P2))
    first, second, third, fourth = ((t.D, t.P1, t.P2) + t.P for t in tables)
    assert fourth[0] == first[0]
    for row in range(1, len(fourth)):
        assert fourth[row] == 3 * first[row] - second[row] - third[row]
