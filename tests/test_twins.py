"""Twin rays sharing one profile, in all three pictures."""

import random
from fractions import Fraction
from functools import reduce

import pytest
import sympy

from sasakijoin import (
    MultiPoly,
    ToricPotential,
    UniPoly,
    compute_profile,
    cp1_profile,
    cp1_twins,
    find_profile_twins,
    make_setup,
    toric_csc_solutions,
    toric_weighted_scal,
    twin_weights,
)
from sasakijoin.exactmath import IntPoly, solve_exact
from sasakijoin.errors import DomainError, InternalInconsistency, SingularSystem
from sasakijoin.profile import _certify, _right_side
from sasakijoin.twins import _twin_equations
from support import (
    ONE_MINUS_Z2,
    random_c,
    random_setup,
    random_x,
    setup_no_csc,
    setup_twin_pair,
)

F = Fraction
Z = UniPoly.variable()


# -- profile twins at weight five ------------------------------------------------

def test_twin_pair_is_symmetric():
    setup = setup_twin_pair()
    x = F(1, 2)
    expected = ONE_MINUS_Z2 * UniPoly((1, -x)) * UniPoly((1, x)) ** 2 / (1 - x * x)

    rep = find_profile_twins(setup, F(1, 2))
    assert rep.base_c == F(1, 2)
    assert rep.partners == (F(-5, 6),)
    assert rep.shared_F == expected
    assert rep.unresolved == ()

    back = find_profile_twins(setup, F(-5, 6))
    assert back.partners == (F(1, 2),)
    assert back.shared_F == expected

    # the shared profile really is the profile of both rays
    assert compute_profile(setup, F(1, 2)).F == expected
    assert compute_profile(setup, F(-5, 6)).F == expected


def test_twinless_ray_reports_empty():
    rep = find_profile_twins(setup_no_csc(), F(2, 5))
    assert rep.partners == ()
    assert rep.unresolved == ()


def _defect_pieces(p, F, a, s, x):
    """T0, T1, T2 with ODE(F) at c' minus its source = T0 + T1 c' + T2 c'^2."""
    z, cp = sympy.symbols("z cp")
    w = cp * z + 1
    defect = sympy.expand(
        w ** 2 * F.diff(z, 2) - 2 * (p - 1) * cp * w * F.diff(z)
        + p * (p - 1) * cp ** 2 * F - w ** 2 * (2 * a * (1 + x * z) + 2 * s * x))
    return [sympy.Poly(defect.coeff(cp, j), z) for j in range(3)]


def _divisibility(piece, x):
    """x^2 times the value at z = -1/x of the degree-<=2 part of piece."""
    low = sum(piece.coeff_monomial(piece.gen ** m) * x ** (2 - m) * (-1) ** m
              for m in range(3))
    return sympy.expand(low)


@pytest.mark.parametrize("p", [5, 6])
def test_twin_equations_are_the_ode_defect(p):
    # sympy expands the ODE defect independently of _twin_equations
    rng = random.Random(p)
    setup = random_setup(rng, d=p - 4)
    prof = compute_profile(setup, F(rng.randint(-9, 9), 10))
    F_ = prof.F
    z = sympy.Symbol("z")
    F_sym = sum(sympy.Rational(c.numerator, c.denominator) * z ** i
                for i, c in enumerate(F_.coeffs))
    a, s, x = (sympy.Rational(v.numerator, v.denominator)
               for v in (setup.a, setup.s, setup.x))
    pieces = _defect_pieces(p, F_sym, a, s, x)
    expected = [[piece.coeff_monomial(z ** m) for piece in pieces]
                for m in range(p, 2, -1)]
    expected.append([_divisibility(piece, x) for piece in pieces])
    want = [[F(int(v.p), int(v.q)) for v in row] for row in expected]
    # the rows are over Z: each z^k row is L D times the defect's, and the
    # divisibility row L D xd^2 times its, for one positive L D
    want[-1] = [v * setup.x.denominator ** 2 for v in want[-1]]
    got = [list(eq.coeffs) + [0] * (3 - len(eq.coeffs))
           for eq in _twin_equations(setup, prof.rows)]
    scale = next(g / w for g_row, w_row in zip(got, want) for g, w in zip(g_row, w_row) if w)
    assert scale > 0
    assert got == [[scale * w for w in row] for row in want]


@pytest.mark.parametrize("p", [5, 6])
def test_twin_matching_system_never_vanishes(p):
    # the proof in the find_profile_twins docstring, step by step
    z, a, s, x = sympy.symbols("z a s x")
    f = sympy.symbols(f"f0:{p + 1}")
    F_sym = sum(fi * z ** i for i, fi in enumerate(f))
    t0, t1, _ = _defect_pieces(p, F_sym, a, s, x)
    assert t1.coeff_monomial(z ** 3) == 8 * (4 - p) * f[4]
    forced = [t0.coeff_monomial(z ** m) for m in range(3, p + 1)]
    endpoints = [F_sym.subs(z, 1), F_sym.subs(z, -1),
                 F_sym.diff(z).subs(z, 1) + 2 * (1 + x),
                 F_sym.diff(z).subs(z, -1) - 2 * (1 - x)]
    solutions = sympy.solve(forced + [f[4]] + endpoints, f, dict=True)
    assert len(solutions) == 1
    assert sympy.expand(F_sym.subs(solutions[0]) - (1 - z ** 2) * (1 + x * z)) == 0
    t0_solved = sympy.Poly(t0.as_expr().subs(solutions[0]), z)
    assert _divisibility(t0_solved, x) == sympy.expand(x ** 2 * (4 - 2 * s * x))


def _weight_five_parts(x, c):
    """F = F0 + a Fa + s Fs at p = 5 (F is affine in (a, s)), at the ray c."""
    f0 = compute_profile(make_setup(d=1, a=0, genus_g2=1, degree_k=1, x=x), c).F
    fa = compute_profile(make_setup(d=1, a=1, genus_g2=1, degree_k=1, x=x), c).F
    fs = compute_profile(make_setup(d=1, a=0, genus_g2=0, degree_k=1, x=x), c).F
    return f0, fa - f0, (fs - f0) / 2


def test_weight_five_twin_sweep():
    # for random rays c != c' solve the p = 5 matching F(c) = F(c') for (a, s);
    # every s = -n/m <= 0 is geometric (g2 = 1 + n, k = 2m), and there the
    # partner must be found and its profile, solved afresh, must be shared
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        x, c, c2 = random_x(rng), random_c(rng), random_c(rng)
        if c == c2:
            continue
        here, there = _weight_five_parts(x, c), _weight_five_parts(x, c2)
        diff = [u - v for u, v in zip(here, there)]
        rows = [[diff[1].coefficient(i), diff[2].coefficient(i)] for i in range(6)]
        rhs = [-diff[0].coefficient(i) for i in range(6)]
        try:
            a, s = solve_exact(rows, rhs)
        except SingularSystem:
            continue
        if s > 0:
            continue
        setup = make_setup(d=1, a=a, genus_g2=1 - s.numerator,
                           degree_k=2 * s.denominator, x=x)
        assert setup.s == s
        rep = find_profile_twins(setup, c)
        assert rep.partners == (c2,)
        assert rep.unresolved == ()
        assert compute_profile(setup, c2).F == rep.shared_F
        checked += 1
    assert checked >= 50


def test_twin_gcd_has_the_base_ray_as_a_root():
    # each equation is a quadratic in c' vanishing at c' = c, so the gcd is
    # (c' - c) times a polynomial of degree <= 1
    rng = random.Random(8)
    cp = sympy.Symbol("cp")
    for p in (5, 6, 7, 8):
        for _ in range(8):
            setup = random_setup(rng, d=p - 4)
            c = random_c(rng)
            equations = _twin_equations(setup, compute_profile(setup, c).rows)
            assert all(eq.degree <= 2 and eq.homogeneous(c) == 0 for eq in equations)
            # sympy takes the gcd independently of IntPoly.remainder_sequence
            common = reduce(sympy.gcd, [sympy.Poly(eq.coeffs[::-1], cp) for eq in equations if eq])
            assert 1 <= common.degree() <= 2
            assert common.eval(sympy.Rational(c.numerator, c.denominator)) == 0


def test_find_profile_twins_validation():
    setup = setup_twin_pair()
    with pytest.raises(DomainError):
        find_profile_twins(setup, F(3, 2))


# -- weight-four closed forms ------------------------------------------------------

def test_cp1_profile_golden():
    out = cp1_profile(-4, F(1, 2))
    assert out["H"] == UniPoly((F(21, 22), 0, F(-10, 11), 0, F(-1, 22)))
    assert out["A"] == F(-84, 11)
    assert out["B"] == F(-111, 22)


def _cp1_linear_solve(k, c):
    # independent derivation: solve the weight-4 boundary problem as a plain
    # linear system in (h0..h4, A, B)
    k, c = F(k), F(c)
    w = UniPoly((1, c))
    unknowns = 7
    rows, rhs = [], []
    images = []
    for i in range(5):
        basis = UniPoly((0,) * i + (1,))
        img = (w * w * basis.derivative().derivative()
               - 6 * c * w * basis.derivative() + 12 * c * c * basis)
        images.append(img)
    target = k * w * w
    for m in range(5):
        row = [img.coefficient(m) for img in images]
        row += [F(1) if m == 1 else F(0), F(1) if m == 0 else F(0)]
        rows.append(row)
        rhs.append(target.coefficient(m))
    for point, value in ((1, 0), (-1, 0)):
        rows.append([F(point) ** i for i in range(5)] + [0, 0])
        rhs.append(F(value))
    for point, value in ((1, -2), (-1, 2)):
        rows.append([i * F(point) ** (i - 1) if i else F(0) for i in range(5)]
                    + [0, 0])
        rhs.append(F(value))
    sol = solve_exact(rows, rhs)
    return UniPoly(sol[:5]), sol[5], sol[6]


def test_cp1_profile_matches_independent_solve():
    for k, c in ((-4, F(1, 2)), (-2, F(1, 3)), (-6, F(-2, 5)), (F(-7, 2), F(0))):
        out = cp1_profile(k, c)
        H, A, B = _cp1_linear_solve(k, c)
        assert out["H"] == H
        assert out["A"] == A
        assert out["B"] == B


CP1_GRID = ((-4, F(1, 2)), (-2, F(1, 3)), (-6, F(-2, 5)), (F(-7, 2), F(0)), (-1, F(-9, 10)))


def _certify_cp1(k, c, H, A, B):
    # cp1_profile's certificate: the profile ODE at p = 4, x = 0, a = k/2, s = 0
    rows = IntPoly.from_unipoly(UniPoly([1, A, B, *H.coeffs])).coeffs
    _certify(_right_side(4, F(k) / 2, 0, 0), c.numerator, c.denominator, rows,
             f"closed-form H at k={k}, c={c}")


@pytest.mark.parametrize("k, c", CP1_GRID)
def test_cp1_certificate_fires(k, c):
    out = cp1_profile(k, c)
    H, A, B = out["H"], out["A"], out["B"]
    _certify_cp1(k, c, H, A, B)
    for tampered in ((H, A + 1, B), (H, A, 2 * B + 1)):
        with pytest.raises(InternalInconsistency):
            _certify_cp1(k, c, *tampered)
    for i in range(5):
        coeffs = [H.coefficient(j) for j in range(5)]
        coeffs[i] += 1
        with pytest.raises(InternalInconsistency):
            _certify_cp1(k, c, UniPoly(coeffs), A, B)
    # twice the profile solves the ODE with k doubled and meets H(+-1) = 0,
    # but its slopes are twice the targets
    with pytest.raises(InternalInconsistency, match="endpoint"):
        _certify_cp1(2 * k, c, 2 * H, 2 * A, 2 * B)


def test_cp1_mirror_symmetry_and_rigidity():
    rng = random.Random(7)
    seen = 0
    while seen < 30:
        k = -F(rng.randint(1, 40), rng.randint(1, 6))
        c = F(rng.randint(-9, 9), 10)
        if 12 - (2 - k) * c * c <= 0:
            continue
        seen += 1
        here = cp1_profile(k, c)["H"]
        assert cp1_profile(k, -c)["H"] == here
        if k == -2:
            assert here == ONE_MINUS_Z2
            continue
        c2 = F(rng.randint(-9, 9), 10)
        if c2 in (c, -c) or 12 - (2 - k) * c2 * c2 <= 0:
            continue
        assert cp1_profile(k, c2)["H"] != here


def test_cp1_flat_case_loses_all_c_dependence():
    for c in (F(0), F(1, 3), F(-7, 9)):
        assert cp1_profile(-2, c)["H"] == ONE_MINUS_Z2


def test_cp1_twins_patterns():
    assert cp1_twins(-4, F(1, 3)) == (F(-1, 3),)
    assert cp1_twins(-2, F(1, 3)) == "continuum"
    assert cp1_twins(-4, F(0)) == ()


def test_cp1_validation():
    with pytest.raises(DomainError):
        cp1_profile(0, F(1, 2))
    with pytest.raises(DomainError):
        cp1_profile(2, F(1, 2))
    with pytest.raises(DomainError):
        cp1_profile(-100, F(9, 10))
    with pytest.raises(DomainError):
        cp1_profile(-4, F(1))


# -- toric picture -----------------------------------------------------------------

def _random_potential(rng, n):
    v = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
    lam = sum(abs(vi) for vi in v) * (n + 1) + F(rng.randint(1, 5))
    return ToricPotential(v=v, lam=lam, n=n)


def test_toric_potential_vertex_positivity():
    pot = ToricPotential(v=(F(1, 2), F(0)), lam=F(2), n=2)
    assert pot.lam == 2
    with pytest.raises(DomainError):
        ToricPotential(v=(F(2), F(0)), lam=F(1), n=2)
    with pytest.raises(DomainError):
        ToricPotential(v=(F(1, 2),), lam=F(2), n=2)
    with pytest.raises(DomainError):
        ToricPotential(v=(), lam=F(1), n=0)


def test_toric_affinity_at_twin_weights():
    rng = random.Random(11)
    for d, n in ((1, 1), (1, 2), (2, 2), (0, 3), (1, 3)):
        p_low, p_high, scal1 = twin_weights(d, n)
        for _ in range(6):
            pot = _random_potential(rng, n)
            for p in (p_low, p_high):
                assert toric_weighted_scal(d, n, p, scal1, pot).is_affine()
            if any(pot.v):
                # any other first-factor curvature breaks affinity
                off = toric_weighted_scal(d, n, p_high, scal1 + F(1, 7), pot)
                assert not off.is_affine()


def test_toric_trivial_potential_gives_constant():
    pot = ToricPotential(v=(F(0), F(0)), lam=F(3), n=2)
    out = toric_weighted_scal(1, 2, 5, F(-4, 3), pot)
    assert out == MultiPoly.constant(2, (F(-4, 3) + 4) * 9)


def test_toric_weighted_scal_matches_hand_expansion_on_the_segment():
    # n = 1: the inverse Hessian is the single entry 1 - x^2, so everything
    # reduces to univariate algebra that can be recomputed directly
    for p, scal1, v, lam in ((4, F(-2), F(1, 3), F(2)),
                             (5, F(1, 2), F(-1, 4), F(3)),
                             (6, F(0), F(1, 2), F(4))):
        pot = ToricPotential(v=(v,), lam=lam, n=1)
        out = toric_weighted_scal(1, 1, p, scal1, pot)
        f = UniPoly((lam, v))
        want = ((scal1 + 2) * f * f - 2 * (p - 1) * f * UniPoly((0, 2 * v))
                - p * (p - 1) * v * v * ONE_MINUS_Z2)
        assert UniPoly([out.coefficient((i,)) for i in range(3)]) == want


def test_scal_versus_weight_parabola():
    # the curvature-versus-weight map m -> 2(2-m)(m-1)/(n+1) peaks at m = 3/2
    # with value 1/(2(n+1)) and is symmetric about the peak
    for n in range(1, 6):
        parabola = UniPoly((-4, 6, -2)) / (n + 1)
        assert parabola.derivative()(F(3, 2)) == 0
        assert parabola.leading < 0
        assert parabola(F(3, 2)) == F(1, 2 * (n + 1))
        for d in range(0, 5):
            lo, hi, scal1 = twin_weights(d, n)
            assert parabola(lo - n) == scal1
            assert parabola(hi - n) == scal1
            assert (lo - n) + (hi - n) == 3  # mirror images around 3/2


def test_twin_weights_examples():
    assert twin_weights(1, 1) == (1, 4, F(-2))
    assert twin_weights(0, 3) == (4, 5, F(0))
    assert twin_weights(2, 1) == (0, 5, F(-6))
    with pytest.raises(DomainError):
        twin_weights(-1, 1)
    with pytest.raises(DomainError):
        twin_weights(1, 0)


def test_toric_csc_candidates():
    out = toric_csc_solutions(2, F(1), 1)
    assert [sol["v"] for sol in out["solutions"]] == [0, F(1), F(-1, 2)]
    assert [sol["admissible"] for sol in out["solutions"]] == [True, False, False]
    assert not out["any_admissible"]

    out3 = toric_csc_solutions(3, F(2), 2)
    assert [sol["v"] for sol in out3["solutions"]][1:] == [F(1), F(-1)]
    assert not out3["any_admissible"]


def test_toric_csc_candidates_sweep():
    for n in (2, 3, 4):
        for lam in (F(1), F(3, 2)):
            for l in range(1, n):
                out = toric_csc_solutions(n, lam, l)
                nontrivial = [sol["v"] for sol in out["solutions"][1:]]
                assert set(nontrivial) == {lam / l, -lam / (n - l + 1)}
                assert not out["any_admissible"]


def test_toric_csc_validation():
    with pytest.raises(DomainError):
        toric_csc_solutions(1, F(1), 1)
    with pytest.raises(DomainError):
        toric_csc_solutions(3, F(1), 0)
    with pytest.raises(DomainError):
        toric_csc_solutions(3, F(1), 3)
    with pytest.raises(DomainError):
        toric_csc_solutions(3, F(0), 1)
