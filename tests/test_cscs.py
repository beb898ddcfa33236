"""Constant-curvature condition: closed form, numerator fit, root certification."""

import math
import random
import sys
from fractions import Fraction

import pytest

import sasakijoin.cli as cli
import sasakijoin.reproduce as reproduce
from sasakijoin import (
    UniPoly,
    condition_numerator,
    csc_condition,
    csc_roots,
    exact_divide,
    h_poly_p5,
    make_setup,
    solve_A,
    sturm_count_roots,
)
from sasakijoin.errors import DomainError, WrongWeight
from sasakijoin.exactmath import IntPoly, integrals, isolate_roots, roots
from support import (
    fraction_isolate_roots,
    moment_condition,
    moment_numerator,
    proportional,
    random_c,
    random_setup,
    random_x,
    setup_moat,
    setup_no_csc,
    setup_three_roots,
)

F = Fraction


def test_condition_is_the_moment_determinant():
    # the pointwise tie between N, which csc_condition reads, and the moments
    rng = random.Random(1)
    for _ in range(10):
        setup = random_setup(rng, d=rng.choice((1, 2, 3)))
        c = random_c(rng)
        assert csc_condition(setup, c) == moment_condition(setup, c)


def test_library_never_integrates_a_moment(monkeypatch, capsys):
    # N is the one route to the cscS condition and the endpoint solve the one
    # route to (A1, A2): with every binding of the moment integral refusing
    # to run, the condition, the affine coefficients, a profile document and
    # the reproduction checks all still come out
    original = integrals.integrate_weighted_monomial

    def refuse(*args):
        raise AssertionError("the library integrated a moment")

    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "sasakijoin" or name.startswith("sasakijoin."):
            for binding, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, binding, refuse)
                    bound += 1
    assert bound >= 3
    setup = setup_no_csc()
    assert csc_condition(setup, F(2, 5)) == 0
    A1, A2 = solve_A(setup, F(2, 5))
    assert A1 == F(2, 5) * A2
    assert cli.main(["profile", "--d", "1", "--a", "-43137/1337", "--g2", "101",
                     "--k", "1", "--x", "1/2", "--c", "1/3"]) == 0
    assert '"cscS": false' in capsys.readouterr().out
    assert all(check["ok"] for check in reproduce.run_checks())


@pytest.mark.parametrize("c", [F(1), F(-1), F(3, 2)])
def test_condition_rejects_out_of_range_rotation(c):
    # csc_condition divides by (1-c^2)^(2p-3)
    with pytest.raises(DomainError):
        csc_condition(setup_no_csc(), c)


@pytest.mark.parametrize("p", range(5, 11))
def test_integer_condition_matches_the_numerator_over_the_denominator(p):
    # csc_condition reads the integer N at c = n/m; the UniPoly route divides
    # N(c) by (1-c^2)^(2p-3) in Fractions
    rng = random.Random(p)
    edge = 1 - F(1, 2 ** 200)
    for setup in [random_setup(rng, d=p - 4) for _ in range(3)]:
        N = condition_numerator(setup)
        for c in [F(0), edge, -edge] + [random_c(rng) for _ in range(5)]:
            assert csc_condition(setup, c) == N(c) / (1 - c * c) ** (2 * p - 3)


def test_h_closed_form_matches_condition():
    rng = random.Random(13)
    for _ in range(50):
        setup = random_setup(rng)
        h = h_poly_p5(setup)
        c = random_c(rng)
        want = 4 * h(c) / (9 * (1 - c * c) ** 7)
        assert csc_condition(setup, c) == moment_condition(setup, c) == want


def test_h_endpoint_values():
    rng = random.Random(19)
    for _ in range(10):
        setup = random_setup(rng)
        h = h_poly_p5(setup)
        x = setup.x
        assert h(-1) == -24 * (1 + x) ** 2
        assert h(1) == 24 * (1 - x) ** 2


def test_h_rejects_other_weights():
    with pytest.raises(WrongWeight):
        h_poly_p5(make_setup(d=2, a=1, genus_g2=0, degree_k=1, x=F(1, 2)))


def test_h_large_a_direction():
    # h is affine in a; its a-coefficient at -1/2 and 1/2 has a fixed sign
    # pattern, which forces extra roots once a is large
    rng = random.Random(23)
    for _ in range(10):
        x = random_x(rng)
        g2, k = rng.randint(0, 5), rng.randint(1, 5)
        h0 = h_poly_p5(make_setup(d=1, a=0, genus_g2=g2, degree_k=k, x=x))
        h1 = h_poly_p5(make_setup(d=1, a=1, genus_g2=g2, degree_k=k, x=x))
        slope = h1 - h0
        assert slope(F(-1, 2)) == (33 + 24 * x - 3 * x * x) / 32
        assert slope(F(1, 2)) == (-33 + 24 * x + 3 * x * x) / 32
        assert slope(F(-1, 2)) > 0 > slope(F(1, 2))


def test_huge_a_has_at_least_three_roots():
    rng = random.Random(29)
    for _ in range(5):
        setup = make_setup(d=1, a=10 ** 6, genus_g2=rng.randint(0, 5),
                           degree_k=rng.randint(1, 5), x=random_x(rng))
        assert sturm_count_roots(h_poly_p5(setup), -1, 1) >= 3


def test_three_root_factorization():
    h = h_poly_p5(setup_three_roots())
    factored = (UniPoly((-9, 10)) * UniPoly((190, 543, -350, -885, 540))
                * F(3, 475))
    assert h == factored


# -- cleared numerator ----------------------------------------------------------

def test_numerator_matches_h_at_weight_five():
    rng = random.Random(31)
    for _ in range(8):
        setup = random_setup(rng)
        assert condition_numerator(setup) == F(4, 9) * h_poly_p5(setup)


def _assert_clears_denominator(setup, numerator, rng):
    # both sides are polynomials of degree <= 2p-5 in c, so agreement at 2p-4
    # distinct points proves the identity
    p = setup.p
    nodes = set()
    while len(nodes) < 2 * p - 4:
        nodes.add(random_c(rng, max_den=40))
    for c in nodes:
        assert (moment_condition(setup, c) * (1 - c * c) ** (2 * p - 3)
                == numerator(c))


def test_numerator_clears_the_exact_denominator():
    rng = random.Random(37)
    for d in range(1, 7):
        setup = random_setup(rng, d=d)
        numerator = condition_numerator(setup)
        assert numerator.degree <= 2 * setup.p - 5
        _assert_clears_denominator(setup, numerator, rng)


# (d, a, g2, k, x, deg N): the leading coefficient of N is affine in (a, s)
# and vanishes here, so deg N falls below 2p-5
DEGREE_DROPS = [
    (1, F(9), 1, 1, F(1, 2), 4),
    (6, F(7), 1, 1, F(13, 16), 14),
]


@pytest.mark.parametrize("d, a, g2, k, x, degree", DEGREE_DROPS)
def test_numerator_degree_can_drop(d, a, g2, k, x, degree):
    setup = make_setup(d=d, a=a, genus_g2=g2, degree_k=k, x=x)
    numerator = condition_numerator(setup)
    p = setup.p
    assert numerator.degree == degree < 2 * p - 5
    K = F(2 ** (2 * p - 3), (p - 1) * (p - 2))
    assert numerator(1) == K * (1 - x) ** 2
    assert numerator(-1) == -K * (1 + x) ** 2
    _assert_clears_denominator(setup, numerator, random.Random(d))


def test_numerator_matches_the_fraction_cleared_moments():
    rng = random.Random(53)
    setups = [random_setup(rng, d=p - 4) for p in range(5, 11) for _ in range(2)]
    setups += [make_setup(d=d, a=a, genus_g2=g2, degree_k=k, x=x)
               for d, a, g2, k, x, _ in DEGREE_DROPS]
    for setup in setups:
        assert condition_numerator(setup) == moment_numerator(setup)


# -- certified roots -------------------------------------------------------------

def test_csc_roots_three_root_example():
    setup = setup_three_roots()
    roots = csc_roots(setup, F(1, 10 ** 4))
    assert len(roots) == 3
    assert [r.exact_value for r in roots] == [None, None, F(9, 10)]
    assert abs(roots[0].midpoint + F(601, 1000)) < F(5, 10 ** 4)
    assert abs(roots[1].midpoint + F(359, 1000)) < F(5, 10 ** 4)
    for r in roots:
        assert r.width <= F(1, 10 ** 4)


def test_csc_roots_exact_rational_root():
    roots = csc_roots(setup_no_csc(), F(1, 2048))
    assert len(roots) == 1
    assert roots[0].exact_value == F(2, 5)
    assert roots[0].lo < F(2, 5) < roots[0].hi


def test_csc_root_count_matches_sturm():
    rng = random.Random(41)
    for _ in range(8):
        setup = random_setup(rng, d=rng.choice((1, 2)))
        n = condition_numerator(setup)
        assert len(csc_roots(setup, F(1, 64))) == sturm_count_roots(n, -1, 1)


def test_sturm_chain_coefficients_obey_a_hadamard_bound_at_large_d(monkeypatch):
    """The Sturm chain csc_roots builds at d = 28 stays polynomial in size.

    Each term after w and w' is, up to sign, the primitive part of a
    subresultant of w and w' (Brown-Traub), a determinant of order at most
    2n-1 whose entries are below n 2^B in size, n = deg w and B the bit length
    of w's coefficients.  Hadamard's inequality bounds its bit length by
    (2n-1)(B + log2 n + log2(2n-1)/2) + 1.  A pseudo-remainder sequence that
    kept its contents would grow exponentially past it.
    """
    chains = []
    build = roots._sturm_chain

    def record(p):
        chains.append(build(p))
        return chains[-1]

    monkeypatch.setattr(roots, "_sturm_chain", record)
    setup = make_setup(d=28, a=3, genus_g2=2, degree_k=1, x=F(1, 2))
    assert len(csc_roots(setup, F(1, 1000))) % 2 == 1
    [chain] = chains
    n = chain[0].degree
    B = max(abs(v).bit_length() for v in chain[0].coeffs)
    peak = max(abs(v).bit_length() for q in chain for v in q.coeffs)
    assert peak <= (2 * n - 1) * (B + math.log2(n) + math.log2(2 * n - 1) / 2) + 1


@pytest.mark.parametrize("d", [1, 28])
def test_isolation_builds_one_remainder_sequence(monkeypatch, d):
    """isolate_roots on a squarefree N, nonzero at -1 and 1, takes deg N
    pseudo-remainders: those of its one Sturm chain, t_2 .. t_n and the zero
    that ends it.  On an IntPoly it builds no UniPoly."""
    numerator = condition_numerator(make_setup(d=d, a=3, genus_g2=2, degree_k=1,
                                               x=F(1, 2)))
    assert numerator(-1) and numerator(1)
    counts = {"prem": 0, "unipoly": 0}
    prem, init = IntPoly.prem, UniPoly.__init__

    def counting_prem(self, other):
        counts["prem"] += 1
        return prem(self, other)

    def counting_init(self, coeffs=()):
        counts["unipoly"] += 1
        init(self, coeffs)

    monkeypatch.setattr(IntPoly, "prem", counting_prem)
    monkeypatch.setattr(UniPoly, "__init__", counting_init)
    ivs = isolate_roots(numerator, -1, 1, F(1, 1000))
    assert counts["prem"] == numerator.degree
    counts["unipoly"] = 0
    assert isolate_roots(IntPoly.from_unipoly(numerator), -1, 1, F(1, 1000)) == ivs
    assert counts["unipoly"] == 0


def test_numerator_builds_one_unipoly(monkeypatch):
    """condition_numerator works over Z and builds only its result."""
    count, init = [0], UniPoly.__init__

    def counting_init(self, coeffs=()):
        count[0] += 1
        init(self, coeffs)

    monkeypatch.setattr(UniPoly, "__init__", counting_init)
    condition_numerator(make_setup(d=3, a=F(7, 3), genus_g2=2, degree_k=3, x=F(2, 7)))
    assert count[0] == 1


def test_bisection_builds_no_fraction(monkeypatch):
    """With identification stubbed out, isolating at width 2^-64 builds as
    many Fractions as at 2^-16: the bisection steps build none."""
    numerator = IntPoly.from_unipoly(condition_numerator(
        make_setup(d=1, a=3, genus_g2=2, degree_k=1, x=F(1, 2))))
    count, new = [0], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(roots, "identify_rational_root", lambda p, lo, hi: None)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    counts = []
    for width in (F(1, 2 ** 16), F(1, 2 ** 64)):
        count[0] = 0
        ivs = isolate_roots(numerator, -1, 1, width)
        counts.append(count[0])
    assert ivs and counts[0] == counts[1]


def test_refinement_evaluation_ceilings(monkeypatch):
    """Integer sign evaluations in csc_roots for one irrational root: the
    one-root refinement jumps many halvings per confirmed guess, so 1/10^4000
    costs a few more than 2^-64 (bisection made 84 and 13,308)."""
    setup = make_setup(d=1, a=3, genus_g2=2, degree_k=1, x=F(1, 2))
    calls, homogeneous = [0], IntPoly.homogeneous

    def counted(self, n, m=None):
        calls[0] += 1
        return homogeneous(self, n, m)

    monkeypatch.setattr(IntPoly, "homogeneous", counted)
    for width, ceiling in ((F(1, 2 ** 64), 45), (F(1, 10 ** 4000), 80)):
        calls[0] = 0
        (root,) = csc_roots(setup, width)
        assert root.width <= width and root.exact_value is None
        assert calls[0] <= ceiling, (width, calls[0])
    # at a = 10^1000 the roots lie within about 2^-3300 of -1 and 1, and the
    # same refinement moves each bracket off the ends and identifies it (at
    # one evaluation per halving, the two made 9,836 evaluations)
    calls[0] = 0
    huge = csc_roots(make_setup(d=1, a=10 ** 1000, genus_g2=2, degree_k=1, x=F(1, 2)),
                     F(1, 2 ** 64))
    assert len(huge) == 3 and all(iv.exact_value is None for iv in huge)
    assert calls[0] <= 150, calls[0]
    # an irrational root -1 + 2^-3000 sqrt(2) at width 1/2: bisection reaches
    # (-1, -1/2) and halves about 3,000 times more to leave -1
    p = IntPoly((2 ** 6000 - 2, 2 ** 6001, 2 ** 6000))
    calls[0] = 0
    ivs = isolate_roots(p, -1, 1, F(1, 2))
    assert calls[0] <= 100, calls[0]
    monkeypatch.undo()
    assert ivs == fraction_isolate_roots(p, -1, 1, F(1, 2))
    assert len(ivs) == 1 and -1 < ivs[0].lo and ivs[0].hi < -1 + F(1, 2 ** 2998)


def test_csc_roots_rejects_nonpositive_width():
    with pytest.raises(DomainError):
        csc_roots(setup_no_csc(), 0)


# -- weight-six family ---------------------------------------------------------

MOAT_COFACTORS = {
    F(8, 10): UniPoly((-29205, -107380, 30532, 197072, -134003, 12260, 5236)),
    F(9, 10): UniPoly((-325945, -2503170, 2190983, 3348648, -3487407, 352890,
                       290849)),
}


def test_weight_six_family_has_designed_root():
    rng = random.Random(43)
    for _ in range(10):
        x = random_x(rng)
        setup = setup_moat(x)
        assert csc_condition(setup, x) == 0


def test_weight_six_numerator_factors_through_designed_root():
    for x, display in MOAT_COFACTORS.items():
        setup = setup_moat(x)
        numerator = condition_numerator(setup)
        cofactor = exact_divide(numerator, UniPoly((x, -1)))
        assert proportional(display, cofactor)
