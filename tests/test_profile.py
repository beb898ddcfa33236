"""Extremal profile construction and its exact certificates."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasakijoin import (
    ProfileTable,
    UniPoly,
    compute_profile,
    csc_condition,
    cscS_check,
    exact_divide,
    is_positive_on_open,
    make_setup,
    profile_table,
    solve_A,
)
from sasakijoin.errors import DomainError, InternalInconsistency
from sasakijoin.exactmath import IntPoly, solve_exact
from sasakijoin.cscs import _cleared_parts
from sasakijoin import profile as profile_module
from sasakijoin.profile import _certify, _endpoint_solve, _Norm, _right_side
from support import (
    ONE_MINUS_Z2,
    alpha,
    beta,
    cleared_beta,
    cleared_moment,
    cleared_moment_cramer,
    cleared_parts,
    integral_formula_value,
    moment_A,
    ode_rhs,
    profile_at,
    random_c,
    random_rational,
    random_setup,
    random_x,
    reconstruct_weighted_scal,
    scan_pool,
    setup_no_csc,
    setup_of,
    setup_positive_example,
    setup_resurrection,
    setup_twin_pair,
    taylor_endpoint_solve,
)

F = Fraction
Z = UniPoly.variable()


# -- moment integrals ----------------------------------------------------------

def test_alpha_examples():
    for setup in (setup_no_csc(), setup_positive_example()):
        for c in (F(0), F(2, 5), F(-1, 3)):
            assert alpha(setup, c, 0, 0) == 2
    flat = make_setup(d=1, a=1, genus_g2=0, degree_k=1, x=F(1, 2))
    assert alpha(flat, F(0), 1, -6) == F(1, 3)


def test_beta_at_c_zero():
    rng = random.Random(2)
    for _ in range(10):
        setup = random_setup(rng)
        a, s, x = setup.a, setup.s, setup.x
        for q in (-4, -5):
            assert beta(setup, F(0), 0, q) == 2 * a + 2 * s * x + 2
            assert beta(setup, F(0), 1, q) == 2 * a * x / 3 + 2 * x


# -- golden profiles -----------------------------------------------------------

def test_profile_no_csc_example():
    prof = compute_profile(setup_no_csc(), F(2, 5))
    expected = ONE_MINUS_Z2 * UniPoly((5, 2)) * UniPoly((-292, 191, 1820)) / 8022
    assert prof.F == expected
    assert cscS_check(prof)
    cofactor = exact_divide(prof.F, ONE_MINUS_Z2)
    assert not is_positive_on_open(cofactor, -1, 1)


def test_profile_positive_example():
    prof = compute_profile(setup_positive_example(), F(1, 8))
    expected = ONE_MINUS_Z2 * UniPoly((8, 1)) * UniPoly((326, 142, 29)) / 2982
    assert prof.F == expected
    assert cscS_check(prof)
    assert is_positive_on_open(exact_divide(prof.F, ONE_MINUS_Z2), -1, 1)


def test_profile_weight_six_example():
    prof = compute_profile(setup_resurrection(), F(3, 5))
    expected = (ONE_MINUS_Z2 * UniPoly((5, 3))
                * UniPoly((413335, 59909, -297891, -76401)) / 527744)
    assert prof.F == expected
    assert is_positive_on_open(exact_divide(prof.F, ONE_MINUS_Z2), -1, 1)


def test_profile_shared_by_twin_rays():
    x = F(1, 2)
    prof = compute_profile(setup_twin_pair(), x)
    expected = (ONE_MINUS_Z2 * UniPoly((1, -x)) * UniPoly((1, x)) ** 2
                / (1 - x * x))
    assert prof.F == expected


# -- defining identities -------------------------------------------------------

def _ode_operator(poly, p, c):
    fz = UniPoly((1, c))
    return (fz * fz * poly.derivative().derivative()
            - 2 * (p - 1) * c * fz * poly.derivative()
            + p * (p - 1) * c * c * poly)


def _ode_residual(setup, prof):
    return (_ode_operator(prof.F, setup.p, prof.c)
            - ode_rhs(setup, prof.c, prof.A1, prof.A2))


def test_profile_satisfies_ode_and_endpoints():
    rng = random.Random(17)
    for i in range(100):
        setup = random_setup(rng, d=rng.choice((1, 1, 2, 3)))
        c = F(0) if i % 20 == 0 else random_c(rng)
        prof = compute_profile(setup, c)
        x = setup.x
        dF = prof.F.derivative()
        assert prof.F(1) == 0 and prof.F(-1) == 0
        assert dF(1) == -2 * (1 + x)
        assert dF(-1) == 2 * (1 - x)
        assert not _ode_residual(setup, prof)
        cof = exact_divide(prof.F, ONE_MINUS_Z2)
        assert cof(1) != 0 and cof(-1) != 0


def test_profile_matches_integral_representation():
    rng = random.Random(23)
    for _ in range(8):
        setup = random_setup(rng, d=rng.choice((1, 2)))
        c = random_c(rng)
        prof = compute_profile(setup, c)
        for z0 in (F(-1), F(1), F(1, 2), F(-3, 7), F(0)):
            assert prof.F(z0) == integral_formula_value(
                setup, c, prof.A1, prof.A2, z0)


# -- endpoint solve against exact elimination ----------------------------------

def _linear_system_profile(setup, c):
    """(F, A1, A2) by exact elimination, independent of the endpoint solve.

    (A1, A2) solve the two moment conditions (support.moment_A); F solves the
    (p+5) x (p+1) system of the p+1 ODE coefficients and the four endpoint
    conditions.
    """
    p, x = setup.p, setup.x
    A1, A2 = moment_A(setup, c)
    rhs = ode_rhs(setup, c, A1, A2)
    images = [_ode_operator(UniPoly([0] * j + [1]), p, c) for j in range(p + 1)]
    rows = [[img.coefficient(i) for img in images] for i in range(p + 1)]
    vec = [rhs.coefficient(i) for i in range(p + 1)]
    rows += [[1] * (p + 1), [(-1) ** j for j in range(p + 1)],
             list(range(p + 1)), [-j * (-1) ** j for j in range(p + 1)]]
    vec += [0, 0, -2 * (1 + x), 2 * (1 - x)]
    return UniPoly(solve_exact(rows, vec)), A1, A2


def _assert_matches_linear_system(setup, c):
    prof = compute_profile(setup, c)
    assert (prof.F, prof.A1, prof.A2) == _linear_system_profile(setup, c)


def test_endpoint_solve_matches_linear_system():
    rng = random.Random(43)
    near_one = 1 - F(1, 2 ** 30)
    for d in range(1, 6):
        setup = random_setup(rng, d=d)
        for c in (F(0), near_one, -near_one, random_c(rng)):
            _assert_matches_linear_system(setup, c)


@given(st.integers(1, 5),
       st.fractions(min_value=-10, max_value=10, max_denominator=9),
       st.integers(0, 6), st.integers(1, 6),
       st.fractions(min_value=0, max_value=1, max_denominator=20)
       .filter(lambda x: 0 < x < 1),
       st.fractions(min_value=-1, max_value=1, max_denominator=2 ** 12)
       .filter(lambda c: abs(c) < 1))
def test_endpoint_solve_matches_linear_system_property(d, a, g2, k, x, c):
    _assert_matches_linear_system(make_setup(d=d, a=a, genus_g2=g2, degree_k=k, x=x), c)


# -- the profile table ---------------------------------------------------------

def test_cleared_moments_match_the_integrals():
    rng = random.Random(47)
    for p in range(5, 10):
        setup = random_setup(rng, d=p - 4)
        cs = (F(0), F(1, 3), F(-5, 7), random_c(rng))
        # the clearings of the table oracle cleared_moment_cramer and of the
        # cscS numerator
        for r, q, k in ((0, -(p + 1), p), (1, -(p + 1), p), (2, -(p + 1), p),
                        (0, -(p - 1), p - 2)):
            moment = cleared_moment(r, q, setup.x, k)
            assert all(moment(c) == (1 - c * c) ** k * alpha(setup, c, r, q)
                       for c in cs)
        for r, q, k in ((0, -(p - 1), p), (1, -(p - 1), p), (0, -(p - 2), p - 2)):
            moment = cleared_beta(setup, r, q, k)
            assert all(moment(c) == (1 - c * c) ** k * beta(setup, c, r, q)
                       for c in cs)


@pytest.mark.parametrize("p", range(5, 11))
def test_integer_cleared_parts_match_the_oracle(p):
    # the clearings condition_numerator reads, and those of the table oracle
    for r, q, k in ((0, -(p - 1), p - 2), (0, -(p - 2), p - 2), (0, -(p + 1), p),
                    (1, -(p + 1), p), (2, -(p + 1), p), (1, -(p - 1), p)):
        E, U, V = _cleared_parts(r, q, k)
        assert E > 0 and all(type(v) is int for v in U.coeffs + V.coeffs)
        assert (UniPoly(U.coeffs) / E, UniPoly(V.coeffs) / E) == cleared_parts(r, q, k)


def _assert_table_matches(table, setup, c):
    assert profile_at(table, c) == compute_profile(setup, c)


def test_table_matches_compute_profile():
    rng = random.Random(53)
    near_one = 1 - F(1, 2 ** 30)
    for p in range(5, 10):
        setup = random_setup(rng, d=p - 4)
        table = profile_table(setup)
        assert table.rows[0].degree == 2 * p - 6
        for c in (F(0), near_one, -near_one, random_c(rng), random_c(rng, 2 ** 11)):
            _assert_table_matches(table, setup, c)


# each example builds and certifies a table, so fewer examples than usual
@settings(max_examples=20)
@given(st.integers(1, 3),
       st.fractions(min_value=-10, max_value=10, max_denominator=9),
       st.integers(0, 6), st.integers(1, 6),
       st.fractions(min_value=0, max_value=1, max_denominator=20)
       .filter(lambda x: 0 < x < 1),
       st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=2 ** 12)
                .filter(lambda c: abs(c) < 1), min_size=1, max_size=4))
def test_table_matches_compute_profile_property(d, a, g2, k, x, cs):
    setup = make_setup(d=d, a=a, genus_g2=g2, degree_k=k, x=x)
    table = profile_table(setup)
    for c in cs:
        _assert_table_matches(table, setup, c)


@pytest.mark.parametrize("p", range(5, 11))
@pytest.mark.parametrize("x", [F(1, 3), F(1, 2), F(9, 10)])
def test_table_matches_cleared_moment_cramer(p, x):
    rng = random.Random(p)
    setup = make_setup(d=p - 4, a=random_rational(rng), genus_g2=rng.randint(0, 6),
                       degree_k=rng.randint(1, 6), x=x)
    table = profile_table(setup)
    D, P1, P2 = cleared_moment_cramer(setup)
    # the one rational lam with lam times the D row equal to the moment D,
    # negative as the rows carry D > 0 (F6)
    rows = [UniPoly(row.coeffs) for row in table.rows[:3]]
    lam = D.leading / rows[0].leading
    assert lam * rows[0] == D and lam < 0
    assert (lam * rows[1], lam * rows[2]) == (P1, P2)


def test_table_at_d10_matches_compute_profile():
    setup = make_setup(d=10, a=F(7, 3), genus_g2=2, degree_k=3, x=F(2, 7))
    table = profile_table(setup)  # certified on construction
    assert setup.p == 14
    for c in (F(0), F(-3, 7), F(11, 13)):
        _assert_table_matches(table, setup, c)


def test_table_affine_coefficients_match_solve_A():
    rng = random.Random(59)
    for _ in range(6):
        setup = random_setup(rng, d=rng.choice((1, 2, 3)))
        table = profile_table(setup)
        for _ in range(5):
            c = random_c(rng)
            prof = profile_at(table, c)
            assert (prof.A1, prof.A2) == solve_A(setup, c) == moment_A(setup, c)


def test_table_certificate_rejects_a_changed_coefficient():
    setup = random_setup(random.Random(61), d=2)
    rows = profile_table(setup).rows
    # the untouched rows certify again
    ProfileTable(setup, rows)
    for k in range(setup.p + 1):
        coeffs = list(rows[3 + k].coeffs)
        coeffs[k % len(coeffs)] += 1
        tampered = list(rows)
        tampered[3 + k] = IntPoly(coeffs)
        with pytest.raises(InternalInconsistency):
            ProfileTable(setup, tampered)


def test_table_certificate_rejects_a_kernel_shift():
    # adding D (cz+1)^(p-1), a kernel element of the ODE operator, keeps the
    # ODE identities and breaks only the endpoint conditions
    setup = random_setup(random.Random(71), d=2)
    D, P1, P2, *P = profile_table(setup).rows
    p = setup.p
    shifted = [Pk + comb(p - 1, k) * IntPoly([0] * k + [1]) * D for k, Pk in enumerate(P)]
    with pytest.raises(InternalInconsistency, match="endpoint"):
        ProfileTable(setup, [D, P1, P2, *shifted])


def _certify_ray(setup, c, F_, A1, A2):
    # the per-ray certificate of compute_profile, on (1, A1, A2, F) cleared
    rows = IntPoly.from_unipoly(UniPoly([1, A1, A2, *F_.coeffs])).coeffs
    _certify(_right_side(setup.p, setup.a, setup.s, setup.x), c.numerator, c.denominator,
             rows, f"profile at c={c}")


@pytest.mark.parametrize("c", [F(-3, 7), F(11, 13)])
def test_ray_certificate_rejects_a_changed_coefficient(c):
    setup = random_setup(random.Random(61), d=2)
    prof = compute_profile(setup, c)
    # the untouched data certifies again
    _certify_ray(setup, c, prof.F, prof.A1, prof.A2)
    for k in range(setup.p + 1):
        coeffs = list(prof.F.coeffs)
        coeffs[k] += 1
        with pytest.raises(InternalInconsistency):
            _certify_ray(setup, c, UniPoly(coeffs), prof.A1, prof.A2)


@pytest.mark.parametrize("c", [F(-3, 7), F(11, 13)])
def test_ray_certificate_rejects_a_kernel_shift(c):
    # (cz+1)^(p-1) is a kernel element of the ODE operator at c: only the
    # endpoint conditions can reject it
    setup = random_setup(random.Random(71), d=2)
    prof = compute_profile(setup, c)
    shifted = prof.F + UniPoly((1, c)) ** (setup.p - 1)
    with pytest.raises(InternalInconsistency, match="endpoint"):
        _certify_ray(setup, c, shifted, prof.A1, prof.A2)


def test_certificates_reject_doubled_slopes():
    # doubling (a, s) doubles the ODE's source, so twice a profile solves the
    # ODE and meets F(+-1) = 0 with the doubled setup, but its slopes are
    # twice the targets: only the slope check can reject it
    setup = make_setup(d=2, a=F(7, 3), genus_g2=2, degree_k=3, x=F(2, 7))
    doubled = make_setup(d=2, a=F(14, 3), genus_g2=3, degree_k=3, x=F(2, 7))
    assert doubled.s == 2 * setup.s
    D, *rest = profile_table(setup).rows
    with pytest.raises(InternalInconsistency, match="endpoint"):
        ProfileTable(doubled, [D, *(2 * row for row in rest)])
    for c in (F(-3, 7), F(11, 13)):
        prof = compute_profile(setup, c)
        with pytest.raises(InternalInconsistency, match="endpoint"):
            _certify_ray(doubled, c, 2 * prof.F, 2 * prof.A1, 2 * prof.A2)


# -- the binomial-basis solve and the one-point table --------------------------

def _oracle_setups():
    # the benchmark's scan pool, random setups with p = 5..14, and d = 20
    rng = random.Random(83)
    return ([setup_of(argv) for argv in scan_pool()]
            + [random_setup(rng, d=p - 4) for p in range(5, 15)]
            + [make_setup(d=20, a=F(7, 3), genus_g2=2, degree_k=3, x=F(2, 7))])


def _side(setup):
    return _right_side(setup.p, setup.a, setup.s, setup.x)


def _primitive(rows):
    content = gcd(*rows)
    return [row // content for row in rows]


def test_binomial_solve_matches_the_taylor_oracle_per_ray():
    rng = random.Random(89)
    for setup in _oracle_setups():
        side = _side(setup)
        for c in (F(0), F(-3, 7), 1 - F(1, 2 ** 30), random_c(rng)):
            n, m = c.numerator, c.denominator
            # the same primitive rows, signs included
            assert (_primitive(_endpoint_solve(side, n, m))
                    == _primitive(taylor_endpoint_solve(side, n, m)))


def test_table_rows_match_the_taylor_oracle():
    # the same primitive rows up to the sign that makes D > 0
    for setup in _oracle_setups():
        oracle = taylor_endpoint_solve(_side(setup), IntPoly((0, 1)), 1)
        content = gcd(*(v for row in oracle for v in row.coeffs))
        if oracle[0].coeffs[0] < 0:
            content = -content
        assert ([row.coeffs for row in profile_table(setup).rows]
                == [tuple(v // content for v in row.coeffs) for row in oracle])


def test_the_majorant_bounds_every_raw_coefficient():
    for setup in _oracle_setups():
        side = _side(setup)
        raw = _endpoint_solve(side, IntPoly((0, 1)), 1)  # the rows over Z[c]
        norms = _endpoint_solve(side, _Norm(1), 1)
        assert all(sum(map(abs, row.coeffs)) <= abs(norm) for row, norm in zip(raw, norms))
        # so the rows at c = 2^bits read back as the rows over Z[c]
        bits = max(map(abs, norms)).bit_length() + 1
        values = _endpoint_solve(side, 2 ** bits, 1)
        assert ([IntPoly.unpack(value, bits).coeffs for value in values]
                == [row.coeffs for row in raw])


def test_table_certificate_rejects_a_change_that_vanishes_at_a_power_of_two():
    # (c - 2^8) c^j is 0 at c = 2^8, so the changed rows pass the identities
    # there; the certificate's point lies past the majorant of the changed rows
    setup = random_setup(random.Random(61), d=2)
    side, rows = _side(setup), profile_table(setup).rows
    for k in range(setup.p + 1):
        for j in (0, 3):
            tampered = list(rows)
            tampered[3 + k] = rows[3 + k] + IntPoly([0] * j + [-2 ** 8, 1])
            _certify(side, 2 ** 8, 1, [row.pack(8) for row in tampered], "at 2^8")
            with pytest.raises(InternalInconsistency):
                ProfileTable(setup, tampered)


def test_every_set_of_rows_has_a_positive_D():
    # profile divides every set of rows by a content signed like D, so D > 0
    # on (-1, 1): at one ray, and as a polynomial in c on the table
    rng = random.Random(97)
    pool = scan_pool()
    assert len(pool) == 48
    for argv in pool:
        setup = setup_of(argv)
        table = profile_table(setup)
        assert is_positive_on_open(table.rows[0], -1, 1)
        for c in (F(0), F(-3, 7), 1 - F(1, 2 ** 30), random_c(rng)):
            assert compute_profile(setup, c).rows[0] > 0
            assert profile_at(table, c).rows[0] > 0


def test_profile_is_affine_in_a_and_s():
    # F22: for fixed (d, x, c), F(a, s) = F(0, 0) + a (F(1, 0) - F(0, 0))
    # + (s/2) (F(0, 2) - F(0, 0)); s = 2(1-g2)/k, so g2 = k = 1 gives s = 0
    # and g2 = 0, k = 1 gives s = 2
    rng = random.Random(22)
    for d, x in ((1, F(1, 2)), (2, F(5, 9)), (4, F(3, 8))):
        for _ in range(5):
            setup = make_setup(d=d, a=random_rational(rng), genus_g2=rng.randint(0, 6),
                               degree_k=rng.randint(1, 6), x=x)
            c = random_c(rng)
            f00, f10, f02 = (compute_profile(make_setup(d=d, a=a, genus_g2=g2, degree_k=1,
                                                        x=x), c).F
                             for a, g2 in ((0, 1), (1, 1), (0, 0)))
            assert (compute_profile(setup, c).F
                    == f00 + setup.a * (f10 - f00) + setup.s / 2 * (f02 - f00))


def test_a_table_build_makes_no_polynomial_product(monkeypatch):
    # the table is solved and certified at integer points: no IntPoly
    # product or scaling, and one majorant run and one solve at c = 2^B
    calls = {"mul": 0, "solve": 0}
    mul, solve = IntPoly.__mul__, profile_module._endpoint_solve

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(IntPoly, "__mul__", counting_mul)
    monkeypatch.setattr(IntPoly, "__rmul__", counting_mul)
    monkeypatch.setattr(profile_module, "_endpoint_solve", counting_solve)
    for setup in (setup_positive_example(), setup_resurrection()):
        calls.update(mul=0, solve=0)
        profile_table(setup)
        assert calls == {"mul": 0, "solve": 2}


def test_table_rejects_out_of_range_rotation():
    table = profile_table(setup_positive_example())
    for c in (F(1), F(-1), F(3, 2)):
        with pytest.raises(DomainError):
            table.rows_at(c)
    with pytest.raises(DomainError):
        profile_table("not a setup")


def test_profile_positive_for_positive_a_and_s():
    rng = random.Random(29)
    for _ in range(200):
        setup = make_setup(d=1, a=F(rng.randint(1, 400), rng.randint(1, 40)),
                           genus_g2=0, degree_k=rng.randint(1, 6),
                           x=random_x(rng))
        prof = compute_profile(setup, random_c(rng))
        assert is_positive_on_open(exact_divide(prof.F, ONE_MINUS_Z2), -1, 1)


def test_reconstructed_weighted_curvature_is_affine():
    rng = random.Random(31)
    cases = [(setup_no_csc(), F(2, 5)), (setup_positive_example(), F(1, 8))]
    cases += [(random_setup(rng, d=rng.choice((1, 2))), random_c(rng))
              for _ in range(10)]
    for setup, c in cases:
        prof = compute_profile(setup, c)
        recon = reconstruct_weighted_scal(prof, setup)
        assert recon == UniPoly((prof.A2, prof.A1))
        assert recon.degree <= 1


# -- rotation-invariance of the curvature condition -----------------------------

def test_cscS_check_iff_condition_vanishes():
    prof = compute_profile(setup_no_csc(), F(2, 5))
    assert cscS_check(prof)
    assert csc_condition(setup_no_csc(), F(2, 5)) == 0
    off = compute_profile(setup_no_csc(), F(1, 3))
    assert not cscS_check(off)
    assert csc_condition(setup_no_csc(), F(1, 3)) != 0

    rng = random.Random(37)
    for _ in range(50):
        setup = random_setup(rng)
        c = random_c(rng)
        prof = compute_profile(setup, c)
        assert cscS_check(prof) == (csc_condition(setup, c) == 0)


def test_affine_defect_is_the_condition_over_the_moment_determinant():
    # F14: Cramer on the moment conditions, with
    # alpha(r, -p) = c alpha(r+1, -(p+1)) + alpha(r, -(p+1)), gives
    # (A1 - c A2)(alpha1^2 - alpha0 alpha2) = 2 csc_condition, so the endpoint
    # solve and the cscS numerator agree in value, not only in their zeros
    rng = random.Random(67)
    for p in range(5, 11):
        for _ in range(3):
            setup = random_setup(rng, d=p - 4)
            c = random_c(rng)
            prof = compute_profile(setup, c)
            a0, a1, a2 = (alpha(setup, c, r, -(p + 1)) for r in range(3))
            assert ((prof.A1 - c * prof.A2) * (a1 * a1 - a0 * a2)
                    == 2 * csc_condition(setup, c))


def test_solve_A_proportionality_examples():
    A1, A2 = solve_A(setup_no_csc(), F(2, 5))
    assert A1 == F(2, 5) * A2
    x = F(9, 10)
    moat = make_setup(d=2, a=3 * (x ** 4 + 7) / ((1 - x * x) * (3 - x * x)),
                      genus_g2=4, degree_k=2, x=x)
    B1, B2 = solve_A(moat, x)
    assert B1 == x * B2


def test_solve_A_matches_direct_moment_solve_at_c_zero():
    rng = random.Random(41)
    for _ in range(10):
        setup = random_setup(rng)
        a, s, x = setup.a, setup.s, setup.x
        # c = 0 moments are plain monomial integrals
        a10, a00, a20 = 2 * x / 3, F(2), F(2, 3)
        b0 = 2 * a + 2 * s * x + 2
        b1 = 2 * a * x / 3 + 2 * x
        det = a10 * a10 - a00 * a20
        want1 = (2 * b0 * a10 - 2 * b1 * a00) / det
        want2 = (2 * b1 * a10 - 2 * b0 * a20) / det
        assert solve_A(setup, F(0)) == (want1, want2)


def test_profile_rejects_out_of_range_rotation():
    setup = setup_positive_example()
    for c in (F(1), F(-1), F(3, 2)):
        with pytest.raises(DomainError):
            compute_profile(setup, c)
    with pytest.raises(DomainError):
        compute_profile("not a setup", F(0))


def test_profile_record_fields():
    setup = setup_positive_example()
    prof = compute_profile(setup, F(1, 8))
    assert prof.c == F(1, 8)
    assert len(prof.rows) == setup.p + 4 == 9
    assert isinstance(prof.A1, Fraction) and isinstance(prof.A2, Fraction)
