"""Exact arithmetic layer: rationals, polynomials, solves, integrals, roots."""

import contextlib
from fractions import Fraction
import math
import random
import sys

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sasakijoin.errors import (
    DomainError,
    InconsistentSystem,
    InexactDivision,
    LogarithmicTerm,
    SingularSystem,
    ZeroPolynomial,
)
from sasakijoin.exactmath import (
    IntPoly,
    MultiPoly,
    RootInterval,
    UniPoly,
    exact_divide,
    format_rational,
    identify_rational_root,
    integrate_weighted_monomial,
    is_positive_on_open,
    isolate_roots,
    parse_rational,
    poly_gcd,
    simplest_rational_in,
    solve_exact,
    squarefree_part,
    sturm_count_roots,
)
from support import (digit_limit, fraction_identify_rational_root, fraction_isolate_roots,
                     poly_divmod)

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polys = st.lists(rationals, min_size=0, max_size=6).map(UniPoly)
nonzero_polys = polys.filter(bool)


# -- rational parsing ---------------------------------------------------------

def test_parse_rational_accepts_fraction_syntax():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-5") == F(-5)
    assert parse_rational("-43137/1337") == F(-43137, 1337)
    assert parse_rational(7) == F(7)
    assert parse_rational(F(2, 9)) == F(2, 9)


@pytest.mark.parametrize("bad", ["0.5", ".5", "1e3", "2E2", "", "x", "4/0",
                                 "\u0663/\u0665", "1_000", "+3", "1/-2", "3/+4"])
def test_parse_rational_rejects_non_fractions(bad):
    with pytest.raises(DomainError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def _long_values():
    rng = random.Random(640)
    values = []
    for digits in (1, 599, 600, 601, 603, 604, 1200, 1201, 4300, 4301, 9001):
        values += [rng.randrange(10 ** (digits - 1), 10 ** digits), 10 ** digits,
                   10 ** digits - 1, 10 ** digits + 1, 10 ** (2 * digits) + 7]
    values += [-v for v in values]
    values += [F(values[i], abs(values[-1 - i]) + 2) for i in range(len(values))]
    return values


@pytest.mark.parametrize("limit", [sys.int_info.default_max_str_digits,
                                   sys.int_info.str_digits_check_threshold])
def test_exact_strings_round_trip_under_the_digit_limit(limit):
    # blocks of 600 digits convert under every setting of the limit
    values = _long_values()
    with digit_limit(limit):
        texts = [format_rational(v) for v in values]
    with digit_limit(0):
        assert [F(text) for text in texts] == values
        assert texts == [str(v) for v in values]


# -- univariate polynomial ring ----------------------------------------------

def test_unipoly_keeps_given_fractions():
    given = [F(1, 3), F(-2, 5), F(7)]
    assert all(kept is coeff for kept, coeff in zip(UniPoly(given).coeffs, given))
    # ints and strs still convert, and equality and hash do not change
    mixed = UniPoly([F(1), "2/3", -5, 0])
    assert mixed.coeffs == (1, F(2, 3), -5) and all(type(v) is F for v in mixed.coeffs)
    same = UniPoly([1, F(2, 3), F(-5)])
    assert mixed == same and hash(mixed) == hash(same)
    assert UniPoly([F(0)]) == UniPoly() == 0


@given(polys, polys, rationals)
def test_unipoly_evaluation_is_a_homomorphism(p, q, t):
    assert (p + q)(t) == p(t) + q(t)
    assert (p * q)(t) == p(t) * q(t)
    assert (-p)(t) == -p(t)


@given(nonzero_polys, nonzero_polys)
def test_unipoly_product_degree_adds(p, q):
    assert (p * q).degree == p.degree + q.degree


@given(polys, nonzero_polys)
def test_unipoly_divmod_identity(p, d):
    quot, rem = poly_divmod(p, d)
    assert quot * d + rem == p
    assert rem.degree < d.degree


@given(polys, nonzero_polys)
@example(UniPoly((F(1, 2),)), UniPoly((2, 2)))
def test_exact_divide_roundtrip(quot, den):
    assert exact_divide(quot * den, den) == quot


def test_exact_divide_rejects_remainder():
    with pytest.raises(InexactDivision):
        exact_divide(UniPoly((1, 0, 1)), UniPoly((-1, 1)))


int_lists = st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=6)


@given(int_lists, int_lists, st.integers(-50, 50))
@example([], [0, 0, 0], 0)
@example([3, 0, -2], [], -1)
def test_intpoly_ring_operations_match_unipoly(a, b, k):
    pa, pb, ua, ub = IntPoly(a), IntPoly(b), UniPoly(a), UniPoly(b)
    for got, want in ((pa + pb, ua + ub), (pa - pb, ua - ub), (pa * pb, ua * ub),
                      (k * pa, k * ua), (pa * k, ua * k), (pa + k, ua + k),
                      (k - pa, k - ua), (-pa, -ua)):
        # equal trimmed coefficient tuples: the zero polynomial is ()
        assert got.coeffs == want.coeffs
        assert all(type(v) is int for v in got.coeffs)


@given(int_lists, int_lists.filter(any), rationals)
def test_intpoly_division_and_evaluation_match_unipoly(a, b, t):
    pa, pb, ua, ub = IntPoly(a), IntPoly(b), UniPoly(a), UniPoly(b)
    # the multiplier |lc|^(delta+1) is positive whatever the sign of lc
    delta = max(pa.degree - pb.degree + 1, 0)
    assert UniPoly(pa.prem(pb).coeffs) == poly_divmod(ua * abs(b[pb.degree]) ** delta, ub)[1]
    assert (pa * pb).exact_div(pb).coeffs == pa.coeffs
    if pb.degree >= 1:
        with pytest.raises(InexactDivision):
            (pa * pb + 1).exact_div(pb)
    if pa:
        assert pa.homogeneous(t) == ua(t) * t.denominator ** pa.degree
        assert pa.primitive().coeffs == IntPoly.from_unipoly(ua).coeffs
        assert pa.primitive().coeffs[-1] * pa.coeffs[-1] > 0


@given(int_lists, int_lists, st.integers(-50, 50))
def test_intpoly_and_unipoly_share_one_ring_arithmetic(cs, other, k):
    pa, ua = IntPoly(cs), UniPoly(cs)
    pb, ub = IntPoly(other), UniPoly(other)
    pairs = ((pa + pb, ua + ub), (pa - pb, ua - ub), (-pa, -ua), (pa * pb, ua * ub),
             (pa * k, ua * k), (k * pa, k * ua), (pa.derivative(), ua.derivative()))
    for got, want in pairs:
        assert type(got) is IntPoly and type(want) is UniPoly
        assert got.coeffs == want.coeffs
        assert all(type(v) is int for v in got.coeffs)
    assert pa.degree == ua.degree and bool(pa) == bool(ua)


@pytest.mark.parametrize("left, right", [
    (UniPoly((F(1, 2), 1)), IntPoly((1, 2))),
    (IntPoly((1, 2)), UniPoly((1,))),
    (IntPoly((1, 2)), F(1, 2)),
    (F(1, 2), IntPoly((1, 2))),
    (IntPoly((1, 2)), 0.5),
    (UniPoly((1, 2)), 0.5),
], ids=["uni-int", "int-uni", "int-fraction", "fraction-int", "int-float", "uni-float"])
def test_operands_outside_the_ring_raise_type_error(left, right):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(left, right)
    assert left != right


def test_intpoly_equality_and_hash_go_by_coefficients():
    a, b = IntPoly((1, 2)), IntPoly([1, 2, 0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != IntPoly((1, 3)) and IntPoly((3,)) == 3 and IntPoly() == 0
    assert IntPoly((1, 2)) != UniPoly((1, 2))


@pytest.mark.parametrize("poly, scalar", [(UniPoly((3,)), 3), (UniPoly(()), 0),
                                          (IntPoly((5,)), 5), (UniPoly((F(1, 2),)), F(1, 2))])
def test_a_constant_hashes_as_the_scalar_it_equals(poly, scalar):
    assert poly == scalar and hash(poly) == hash(scalar)
    assert scalar in {poly} and poly in {scalar} and {poly: 1}[scalar] == 1


@pytest.mark.parametrize("bits", [2, 8, 61, 200])
def test_intpoly_unpack_inverts_pack_on_small_coefficients(bits):
    top = 2 ** (bits - 1) - 1
    for coeffs in ((top, -top, 0, 1, -top), (-top, 0, top), (0, 0, -1), (top,), ()):
        poly = IntPoly(coeffs)
        value = poly.pack(bits)
        assert value == poly.homogeneous(2 ** bits, 1)
        assert IntPoly.unpack(value, bits).coeffs == poly.coeffs
    # a coefficient of 2^(bits-1) reads back as another polynomial of the value
    assert IntPoly.unpack(IntPoly((top + 1,)).pack(bits), bits).coeffs == (-top - 1, 1)


def test_intpoly_exact_division_is_over_the_integers():
    # (z + 1) / (2z + 2) = 1/2 over Q, but not over Z
    with pytest.raises(InexactDivision):
        IntPoly((1, 1)).exact_div(IntPoly((2, 2)))
    assert IntPoly((2, 2)).exact_div(IntPoly((1, 1))).coeffs == (2,)


@pytest.mark.parametrize("num", [IntPoly((1, 2, 3)), IntPoly()])
def test_intpoly_exact_division_by_zero_raises_like_exact_divide(num):
    with pytest.raises(ZeroDivisionError):
        num.exact_div(IntPoly())
    with pytest.raises(ZeroDivisionError):
        exact_divide(UniPoly(num.coeffs), UniPoly())


@pytest.mark.parametrize("num", [IntPoly((1, 2, 3)), IntPoly()])
def test_intpoly_pseudo_remainder_by_zero_raises(num):
    with pytest.raises(ZeroDivisionError):
        num.prem(IntPoly())


def test_poly_gcd_and_squarefree():
    zm1 = UniPoly((-1, 1))
    assert poly_gcd(zm1 * UniPoly((2, 1)), zm1 * UniPoly((3, 1))) == zm1
    assert squarefree_part(zm1 ** 2 * UniPoly((2, 1))) == zm1 * UniPoly((2, 1))


def test_call_evaluates_exactly():
    p = UniPoly((-292, 191, 1820))
    assert p(0) == -292
    assert p(F(1, 2)) == -292 + F(191, 2) + F(1820, 4)


# -- Sturm counting -----------------------------------------------------------

def test_sturm_examples():
    one_minus_z2 = UniPoly((1, 0, -1))
    assert sturm_count_roots(one_minus_z2, -1, 1) == 0
    assert sturm_count_roots(UniPoly((190, 657, 540)), -1, 1) == 2
    assert sturm_count_roots(UniPoly((326, 142, 29)), -1, 1) == 0


def test_sturm_counts_multiple_root_once():
    p = UniPoly((-F(1, 3), 1)) ** 2
    assert sturm_count_roots(p, 0, 1) == 1


def test_sturm_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        sturm_count_roots(UniPoly(()), -1, 1)


small_roots = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.lists(small_roots, min_size=1, max_size=4), rationals, rationals)
def test_sturm_against_known_root_sets(roots, lo, hi):
    if lo == hi:
        return
    if lo > hi:
        lo, hi = hi, lo
    p = UniPoly((1,))
    for r in roots:
        p = p * UniPoly((-r, 1))
    distinct = set(roots)
    want_open = sum(1 for r in distinct if lo < r < hi)
    assert sturm_count_roots(p, lo, hi) == want_open


# every root factor is m z - n with a non-dyadic root n/m among them, so the
# ends lo, hi below can sit exactly on a root
_ENDS = [F(-1), F(1), F(-1, 3), F(2, 7), F(5, 9), F(-7, 5), F(0)]
_linear = st.sampled_from(_ENDS + [F(1, 2), F(-3, 4)]).map(
    lambda r: UniPoly((-r.numerator, r.denominator)))
# a z^2 + b z + c with b^2 < 4ac: no real root
_irreducible_quadratic = st.tuples(st.integers(1, 5), st.integers(-3, 3),
                                   st.integers(1, 5), st.sampled_from([1, -1])).filter(
    lambda t: t[1] ** 2 < 4 * t[0] * t[2]).map(
    lambda t: UniPoly((t[3] * t[2], t[3] * t[1], t[3] * t[0])))
# a z^j + b: its gaps make the remainder sequence drop more than one degree
# at a step, where a signed multiplier lc^(delta+1) would flip a Sturm term
_binomial = st.tuples(st.integers(2, 4), st.sampled_from([1, -1, 2, -3]),
                      st.sampled_from([1, -1, 5, -2])).map(
    lambda t: UniPoly((t[2],) + (0,) * (t[0] - 1) + (t[1],)))
_any_factor = st.one_of(_linear, _irreducible_quadratic, _binomial,
                        st.lists(rationals, min_size=2, max_size=4).map(UniPoly).filter(
                            lambda q: q.degree >= 1))
# factors with repetition, times a leading coefficient of either sign
factored_polys = st.tuples(
    st.lists(st.tuples(_any_factor, st.integers(1, 3)), min_size=1, max_size=4),
    st.sampled_from([F(1), F(-1), F(3), F(-5, 2), F(-7, 3), F(2, 9)]),
).map(lambda t: math.prod((f ** e for f, e in t[0]), start=t[1]))


def _sympy_poly(p):
    z = sympy.Symbol("z")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], z, domain="QQ")


@settings(max_examples=40)
@given(factored_polys, st.sampled_from(_ENDS), st.sampled_from(_ENDS))
@example(-3 * UniPoly((-1, 3)) ** 2 * UniPoly((1, 0, 1)), F(-1), F(1, 3))
@example(UniPoly((0, 1, 0, 0, -1)), F(-1, 3), F(2, 7))
def test_root_counts_and_positivity_match_sympy(p, lo, hi):
    if lo == hi:
        return
    lo, hi = min(lo, hi), max(lo, hi)
    sp_poly = _sympy_poly(p)
    # sympy counts the distinct roots in the closed interval
    want = sp_poly.count_roots(lo, hi) - (p(lo) == 0) - (p(hi) == 0)
    assert sturm_count_roots(p, lo, hi) == want
    interior = [r for r in sp_poly.real_roots() if bool(lo < r) and bool(r < hi)]
    assert len(set(interior)) == want
    assert is_positive_on_open(p, lo, hi) == (not interior and p((lo + hi) / 2) > 0)


# c (m z - n)^k with a content c > 1 allowed, so that a remainder sequence can
# end on a non-primitive multiple of the gcd, as w' does for w = (3 + 5z)^3
_scaled_linear = st.tuples(st.sampled_from(_ENDS + [F(1, 2), F(-3, 5)]),
                           st.integers(1, 4)).map(
    lambda t: UniPoly((-t[1] * t[0].numerator, t[1] * t[0].denominator)))
repeated_polys = st.tuples(
    st.lists(st.tuples(_scaled_linear, st.integers(1, 4)), min_size=1, max_size=3),
    st.one_of(st.just(UniPoly((1,))), _irreducible_quadratic, _binomial,
              st.lists(st.integers(-5, 5), min_size=2, max_size=4).map(UniPoly).filter(
                  lambda q: q.degree >= 1)),
    st.sampled_from([1, -1, 3, -5, F(2, 9)]),
).map(lambda t: math.prod((f ** e for f, e in t[0]), start=t[2] * t[1]))


@settings(max_examples=30)
@given(repeated_polys, st.sampled_from(_ENDS), st.sampled_from(_ENDS),
       st.sampled_from([F(1, 64), F(2)]))
@example(UniPoly((3, 5)) ** 3, F(-1), F(0), F(1, 64))
def test_isolation_with_repeated_nonprimitive_factors_matches_sympy(p, lo, hi, width):
    if lo == hi:
        return
    lo, hi = min(lo, hi), max(lo, hi)
    interior = sorted({r for r in _sympy_poly(p).real_roots()
                       if bool(lo < r) and bool(r < hi)})
    assert sturm_count_roots(p, lo, hi) == len(interior)
    ivs = isolate_roots(p, lo, hi, width)
    assert len(ivs) == len(interior)
    for iv, r in zip(ivs, interior):
        assert [bool(iv.lo < s) and bool(s < iv.hi) for s in interior].count(True) == 1
        assert bool(iv.lo < r) and bool(r < iv.hi) and iv.width <= width
        assert iv.exact_value == (F(int(r.p), int(r.q)) if r.is_Rational else None)
    # an integer input, non-primitive and of either sign, gives the same result
    ip = IntPoly.from_unipoly(p)
    for q in (ip, -6 * ip):
        assert sturm_count_roots(q, lo, hi) == len(interior)
        assert isolate_roots(q, lo, hi, width) == ivs


@settings(max_examples=40)
@given(factored_polys, factored_polys)
def test_gcd_and_squarefree_part_match_sympy(p, q):
    gcd_sympy = sympy.gcd(_sympy_poly(p), _sympy_poly(q)).monic()
    assert _sympy_poly(poly_gcd(p, q)) == gcd_sympy
    sf = squarefree_part(p)
    assert _sympy_poly(sf / sf.leading) == sympy.sqf_part(_sympy_poly(p)).monic()


# -- positivity ---------------------------------------------------------------

def test_is_positive_examples():
    assert is_positive_on_open(UniPoly((326, 142, 29)), -1, 1)
    assert not is_positive_on_open(UniPoly((-292, 191, 1820)), -1, 1)
    assert is_positive_on_open(UniPoly((1,)), -1, 1)
    # vanishing at the open endpoints does not spoil interior positivity
    assert is_positive_on_open(UniPoly((1, 0, -1)), -1, 1)


@given(nonzero_polys)
def test_p_and_minus_p_never_both_positive(p):
    assert not (is_positive_on_open(p, -1, 1) and is_positive_on_open(-p, -1, 1))


# -- root isolation and identification ----------------------------------------

QUARTIC = UniPoly((190, 543, -350, -885, 540))


def test_isolate_factored_quintic():
    p = UniPoly((-9, 10)) * QUARTIC
    ivs = isolate_roots(p, -1, 1, F(1, 1000))
    assert len(ivs) == 3
    for iv in ivs:
        assert iv.width <= F(1, 1000)
        assert sturm_count_roots(p, iv.lo, iv.hi) == 1
    assert all(a.hi <= b.lo for a, b in zip(ivs, ivs[1:]))
    hits = [iv for iv in ivs if iv.lo < F(9, 10) < iv.hi]
    assert len(hits) == 1
    assert hits[0].exact_value == F(9, 10)
    assert identify_rational_root(p, hits[0].lo, hits[0].hi) == F(9, 10)


def test_isolate_quartic_negative_roots():
    ivs = isolate_roots(QUARTIC, -1, 0, F(1, 10 ** 6))
    assert len(ivs) == 2
    mids = [iv.midpoint for iv in ivs]
    assert abs(mids[0] + F(601, 1000)) < F(5, 10 ** 4)
    assert abs(mids[1] + F(359, 1000)) < F(5, 10 ** 4)
    # cross-check against sympy's independent real-root isolation
    z = sympy.Symbol("z")
    quartic = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                          for c in reversed(QUARTIC.coeffs)], z)
    fine = [(F(int(lo.p), int(lo.q)), F(int(hi.p), int(hi.q)))
            for (lo, hi), _ in quartic.intervals(eps=sympy.Rational(1, 10 ** 10))]
    fine = [(lo, hi) for lo, hi in fine if -1 < lo and hi < 0]
    assert len(fine) == 2
    for iv, (lo, hi) in zip(ivs, fine):
        assert iv.lo <= lo and hi <= iv.hi
    # the two roots are irrational, and identification proves it
    for iv in ivs:
        assert iv.exact_value is None
        assert identify_rational_root(QUARTIC, iv.lo, iv.hi) is None


def test_isolate_variable_polynomial():
    ivs = isolate_roots(UniPoly.variable(), -1, 1, F(1, 1000))
    assert len(ivs) == 1
    assert ivs[0].lo < 0 < ivs[0].hi
    assert ivs[0].width <= F(1, 1000)


def test_isolate_ignores_endpoint_roots():
    p = UniPoly((1, 0, -1)) * UniPoly((-F(1, 2), 1))
    ivs = isolate_roots(p, -1, 1, F(1, 64))
    assert len(ivs) == 1
    assert ivs[0].lo < F(1, 2) < ivs[0].hi


def test_isolate_collapses_multiplicities():
    p = UniPoly((-F(1, 3), 1)) ** 2 * UniPoly((F(1, 2), 1))
    ivs = isolate_roots(p, -1, 1, F(1, 100))
    assert len(ivs) == 2


def test_isolate_rejects_bad_requests():
    with pytest.raises(DomainError):
        isolate_roots(QUARTIC, -1, 1, 0)
    with pytest.raises(DomainError):
        isolate_roots(QUARTIC, 1, -1, F(1, 10))
    with pytest.raises(ZeroPolynomial):
        isolate_roots(UniPoly(()), -1, 1, F(1, 10))


def test_isolate_at_tiny_width():
    # each bracket takes about 1100 bisections; no recursion limit applies
    p = UniPoly((-9, 10)) * QUARTIC
    width = F(1, 2 ** 1100)
    ivs = isolate_roots(p, -1, 1, width)
    assert len(ivs) == 3
    for iv in ivs:
        assert iv.width <= width
        assert sturm_count_roots(p, iv.lo, iv.hi) == 1


def test_isolate_nudges_split_points_off_roots():
    # bisection midpoints land exactly on both roots, 0 and 1/4
    p = UniPoly.variable() * UniPoly((-F(1, 4), 1))
    ivs = isolate_roots(p, -1, 1, F(1, 64))
    assert [(iv.lo, iv.hi) for iv in ivs] == [(F(-1, 343), F(3, 343)),
                                              (F(12, 49), F(25, 98))]


def test_isolate_keeps_coarse_brackets_inside_the_interval():
    # at width 4 the first bracket is all of (-1, 1); bisection moves it off
    # both ends, and the midpoint 1/2 lands on the root, which rebuilds
    # (1/2 - 1/8, 1/2 + 1/8)
    ivs = isolate_roots(UniPoly((-F(1, 2), 1)), -1, 1, 4)
    assert ivs == [RootInterval(F(3, 8), F(5, 8), exact_value=F(1, 2))]
    p = UniPoly((-9, 10)) * QUARTIC
    for width in (F(4), F(2), F(1)):
        ivs = isolate_roots(p, -1, 1, width)
        assert len(ivs) == 3
        for iv in ivs:
            assert -1 < iv.lo and iv.hi < 1 and iv.width <= width
            assert sturm_count_roots(p, iv.lo, iv.hi) == 1
        assert [iv.exact_value for iv in ivs] == [None, None, F(9, 10)]


# products of repeated linear and quadratic factors over Z; the quadratics
# may have two real roots, one, or none
_int_linear = st.fractions(min_value=-2, max_value=2, max_denominator=9).map(
    lambda r: IntPoly((-r.numerator, r.denominator)))
_int_quadratic = st.tuples(st.integers(1, 5), st.integers(-6, 6),
                           st.integers(-5, 5).filter(bool)).map(
    lambda t: IntPoly((t[2], t[1], t[0])))
_int_products = st.lists(st.tuples(st.one_of(_int_linear, _int_quadratic), st.integers(1, 3)),
                         min_size=1, max_size=4).map(
    lambda fs: math.prod((f for f, e in fs for _ in range(e)), start=IntPoly((1,))))
_thirds = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@contextlib.contextmanager
def _evaluation_budget(limit):
    """Fail, rather than hang, once IntPoly evaluations pass limit; yields a
    one-item list holding the count."""
    homogeneous, calls = IntPoly.homogeneous, [0]

    def counted(self, n, m=None):
        calls[0] += 1
        assert calls[0] <= limit, "isolation does not terminate"
        return homogeneous(self, n, m)

    IntPoly.homogeneous = counted
    try:
        yield calls
    finally:
        IntPoly.homogeneous = homogeneous


# coarse widths, and deep ones where refinement jumps and falls back
_widths = st.one_of(
    st.fractions(min_value=F(1, 50), max_value=3, max_denominator=50),
    st.integers(6, 300).map(lambda e: F(1, 2 ** e)),
    st.tuples(st.integers(1, 8), st.integers(6, 300)).map(
        lambda je: F(je[0], 3 * 2 ** je[1])))


@settings(max_examples=60)
@given(_int_products, _thirds, _thirds, _widths)
def test_integer_bisection_matches_the_fraction_reference(p, lo, hi, width):
    if lo == hi:
        return
    lo, hi = min(lo, hi), max(lo, hi)
    with _evaluation_budget(100_000) as calls:
        ivs = isolate_roots(p, lo, hi, width)
    with _evaluation_budget(100_000) as reference_calls:
        assert ivs == fraction_isolate_roots(p, lo, hi, width)
    # a failed guess wastes at most two evaluations and halves e, so the
    # refinement stays within twice bisection's (plus sf at hi)
    assert calls[0] <= 2 * reference_calls[0] + 4


def test_isolation_nudges_off_a_root_at_the_first_midpoint():
    # both roots lie in (-1/3, 5/3), and the first midpoint is the root 2/3,
    # so the split moves to -1/3 + 2 (3/7) = 11/21
    p = IntPoly((-2, 3)) * IntPoly((-1, 1))
    with _evaluation_budget(10_000):
        ivs = isolate_roots(p, F(-1, 3), F(5, 3), F(1, 7))
    assert ivs == fraction_isolate_roots(p, F(-1, 3), F(5, 3), F(1, 7))
    assert [(iv.lo, iv.hi, iv.exact_value) for iv in ivs] == [
        (F(95, 147), F(107, 147), F(2, 3)), (F(20, 21), F(23, 21), 1)]


def test_isolation_stops_at_an_attained_width():
    # (-1/3, 5/3) halves to widths 2, 1, 1/2 around sqrt(2/3), off both ends
    p = IntPoly((-2, 0, 3))
    ivs = isolate_roots(p, F(-1, 3), F(5, 3), F(1, 2))
    assert ivs == fraction_isolate_roots(p, F(-1, 3), F(5, 3), F(1, 2))
    assert [(iv.lo, iv.hi) for iv in ivs] == [(F(2, 3), F(7, 6))]


@pytest.mark.parametrize("width", [F(2), F(3)])
def test_isolation_at_a_coarse_width(width):
    # width >= hi - lo: no bisection, and the end fix-up moves the bracket off
    # lo and hi; for 3z - 2 it lands on the root 2/3 and rebuilds 2/3 -+ 1/4
    lo, hi = F(-1, 3), F(5, 3)
    for p, want in ((IntPoly((-2, 0, 1)), (F(7, 6), F(17, 12))),
                    (IntPoly((-2, 3)), (F(5, 12), F(11, 12)))):
        ivs = isolate_roots(p, lo, hi, width)
        assert ivs == fraction_isolate_roots(p, lo, hi, width)
        assert [(iv.lo, iv.hi) for iv in ivs] == [want]


def test_simplest_rational_examples():
    assert simplest_rational_in(F(3999, 10000), F(4004, 10000)) == F(2, 5)
    assert simplest_rational_in(F(32, 10), F(45, 10)) == 4
    assert simplest_rational_in(F(-45, 10), F(-32, 10)) == -4
    assert simplest_rational_in(F(-1, 3), F(1, 5)) == 0
    assert simplest_rational_in(F(2, 7), F(3, 7)) == F(1, 3)


@given(st.fractions(min_value=F(1, 40), max_value=50, max_denominator=40),
       st.fractions(min_value=F(1, 40), max_value=2, max_denominator=40))
def test_simplest_rational_is_minimal(lo, gap):
    import math
    hi = lo + gap
    best = simplest_rational_in(lo, hi)
    assert lo <= best <= hi
    for smaller in range(1, best.denominator):
        # no fraction with a smaller denominator fits in [lo, hi]
        assert F(math.ceil(lo * smaller), smaller) > hi


def test_identify_rational_root():
    assert identify_rational_root(UniPoly((-4, 0, 1)), F(3, 2), F(5, 2)) == 2
    assert identify_rational_root(UniPoly((-2, 0, 1)), 1, F(3, 2)) is None
    # endpoint roots are returned directly
    assert identify_rational_root(UniPoly((-1, 1)), 1, 2) == 1
    # no sign change: nothing to identify
    assert identify_rational_root(UniPoly((1, 0, 1)), -1, 1) is None
    # integer inputs, non-primitive and with a negative leading coefficient
    assert identify_rational_root(IntPoly((6, -4)), 1, 2) == F(3, 2)
    assert identify_rational_root(IntPoly((-4, 0, 2)), 1, F(3, 2)) is None


class CountingPoly(IntPoly):
    """An IntPoly that counts its evaluations."""

    __slots__ = ("calls",)

    def __init__(self, coeffs):
        super().__init__(coeffs)
        self.calls = 0

    def homogeneous(self, n, m=None):
        self.calls += 1
        return super().homogeneous(n, m)


def _ceil_log2(x):
    """Smallest e >= 0 with 2**e >= x."""
    e = 0
    while 2 ** e < x:
        e += 1
    return e


@st.composite
def rational_root_cases(draw):
    """(m, k, n, scale): p = scale * (m z - k) * (z^2 - n), n not a square."""
    m = draw(st.integers(1, 2 ** 60))
    k = draw(st.integers(-4 * m + 1, 4 * m - 1))
    s = draw(st.integers(1, 3))
    n = s * s + draw(st.integers(1, 2 * s))
    scale = draw(rationals.filter(bool))
    return m, k, n, scale


@given(rational_root_cases(), st.sampled_from([F(1, 64), F(1, 2048), F(1, 2 ** 64)]))
# 35/128 is the midpoint of its bracket (15/56, 125/448), and the brackets of
# -+sqrt(2) take exactly as many evaluations as the bound allows
@example((128, 35, 2, F(1)), F(1, 64))
def test_identify_rational_root_is_complete(case, width):
    m, k, n, scale = case
    p = UniPoly((-k, m)) * UniPoly((-n, 0, 1)) * scale
    root = F(k, m)
    # by Gauss's lemma the primitive integer multiple of p leads with this
    grid = root.denominator
    ivs = isolate_roots(p, -5, 5, width)
    assert len(ivs) == 3
    # the primitive integer multiple, and a non-primitive one of the other sign
    ip = IntPoly.from_unipoly(p)
    for multiple in (ip, -6 * ip):
        counted = CountingPoly(multiple.coeffs)
        for iv in ivs:
            counted.calls = 0
            found = identify_rational_root(counted, iv.lo, iv.hi)
            assert found == (root if iv.lo < root < iv.hi else None)
            assert iv.exact_value == found
            # at least the two end signs, so the count is not vacuous
            assert 2 <= counted.calls <= _ceil_log2(grid * iv.width) + 3


@st.composite
def one_root_brackets(draw):
    """(p, lo, hi): p = scale (m z - k) q with q one of a few quadratics, and
    a bracket holding at most one root of p, ends included.  A center, k/m
    or a rational near sqrt(2) or sqrt(3), lies at a dyadic point of the
    bracket (a midpoint of its bisection), at an end, or anywhere; m runs
    past 2^64."""
    m = draw(st.one_of(st.integers(1, 50), st.integers(2 ** 64, 2 ** 70)))
    root = F(draw(st.integers(-4 * m, 4 * m)), m)
    q = draw(st.sampled_from([UniPoly((1, 0, 1)), UniPoly((-2, 0, 1)), UniPoly((-3, 0, 1)),
                              UniPoly((5, -3, 1))]))
    width = draw(st.one_of(st.fractions(F(1, 1000), 4, max_denominator=1000),
                           st.integers(1, 200).map(lambda e: F(1, 2 ** e))))
    at = draw(st.one_of(st.sampled_from([F(0), F(1)]),
                        st.tuples(st.integers(0, 2 ** 12), st.integers(1, 12)).map(
                            lambda t: F(2 * (t[0] % 2 ** (t[1] - 1)) + 1, 2 ** t[1])),
                        st.fractions(0, 1, max_denominator=10 ** 6)))
    lo = draw(st.sampled_from([root, F(99, 70), F(-97, 56)])) - at * width
    p = UniPoly((-root.numerator, root.denominator)) * q * draw(rationals.filter(bool))
    return p, lo, lo + width


@given(one_root_brackets())
# 1/2 is the first midpoint of (0, 1), and 3/2 the lower end of its bracket
@example((UniPoly((-1, 2)) * UniPoly((1, 0, 1)), F(0), F(1)))
@example((UniPoly((-3, 2)) * UniPoly((1, 0, 1)), F(3, 2), F(5, 2)))
def test_identification_matches_the_fraction_bisection(case):
    p, lo, hi = case
    ends = sum(1 for end in (lo, hi) if p(end) == 0)
    assume(sturm_count_roots(p, lo, hi) + ends <= 1)
    assert identify_rational_root(p, lo, hi) == fraction_identify_rational_root(p, lo, hi)


def test_root_interval_validation():
    iv = RootInterval(F(1, 4), F(1, 2), exact_value=F(1, 3))
    assert iv.width == F(1, 4)
    assert iv.midpoint == F(3, 8)
    with pytest.raises(DomainError):
        RootInterval(F(1, 2), F(1, 4))


# -- linear solves ------------------------------------------------------------

def test_solve_exact_overdetermined_consistent():
    sol = solve_exact([[1, 1], [1, -1], [2, 0]], [3, 1, 4])
    assert sol == [F(2), F(1)]


def test_solve_exact_failure_modes():
    with pytest.raises(InconsistentSystem):
        solve_exact([[1, 1], [2, 2]], [3, 5])
    with pytest.raises(SingularSystem):
        solve_exact([[1, 2, 3]], [6])
    with pytest.raises(SingularSystem):
        solve_exact([[1, 1], [2, 2]], [3, 6])


def test_solve_exact_random_roundtrip():
    import random
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        sol = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        rows = []
        for i in range(n):
            row = [F(rng.randint(-3, 3)) for _ in range(n)]
            row[i] += 20  # diagonally dominant, hence invertible
            rows.append(row)
        rhs = [sum(r * s for r, s in zip(row, sol)) for row in rows]
        assert solve_exact(rows, rhs) == sol


# -- weighted monomial integrals -----------------------------------------------

def test_integral_constant_and_linear_moments():
    for c in (F(0), F(2, 5), F(-1, 3)):
        for x in (F(1, 2), F(9, 10)):
            assert integrate_weighted_monomial(0, 0, c, x) == 2
            assert integrate_weighted_monomial(1, 0, c, x) == 2 * x / 3


def _antiderivative(p):
    return UniPoly((0,) + tuple(co / (i + 1) for i, co in enumerate(p.coeffs)))


def test_integral_polynomial_branch_against_antiderivative():
    import random
    rng = random.Random(11)
    for _ in range(20):
        c = F(rng.randint(-9, 9), 10)
        x = F(rng.randint(1, 9), 10)
        r = rng.randint(0, 4)
        q = rng.randint(0, 3)
        integrand = (UniPoly((0, 1)) ** r * UniPoly((1, c)) ** q
                     * UniPoly((1, x)))
        anti = _antiderivative(integrand)
        assert integrate_weighted_monomial(r, q, c, x) == anti(1) - anti(-1)


def test_integral_negative_weight_against_parts_recurrence():
    # Independent oracle for the u-substitution branch.  With V(r, q) denoting
    # the x = 0 integral, differentiation of t^(r+1) (c t + 1)^q gives
    #   V(r+1, q-1) = (boundary - (r+1) V(r, q)) / (q c),
    # and V(0, q) has the closed form ((1+c)^(q+1) - (1-c)^(q+1)) / (c (q+1)).
    for c in (F(2, 5), F(-1, 3), F(9, 10)):
        vals = {}
        for q in range(-7, -1):
            vals[(0, q)] = ((1 + c) ** (q + 1) - (1 - c) ** (q + 1)) / (c * (q + 1))
        for r in range(0, 4):
            for q in range(-6, -2):
                if (r, q) not in vals:
                    continue
                boundary = (1 + c) ** q - (-1) ** (r + 1) * (1 - c) ** q
                vals[(r + 1, q - 1)] = (boundary - (r + 1) * vals[(r, q)]) / (q * c)
        for (r, q), want in vals.items():
            if r + q >= -1:
                continue  # logarithmic, not integrable in this form
            assert integrate_weighted_monomial(r, q, c, 0) == want


def test_integral_weight_is_linear_in_x():
    for c in (F(2, 5), F(-1, 3)):
        for x in (F(1, 2), F(9, 10)):
            for r, q in ((0, -6), (1, -6), (2, -6), (0, -5), (1, -5), (0, -4)):
                assert (integrate_weighted_monomial(r, q, c, x)
                        == integrate_weighted_monomial(r, q, c, 0)
                        + x * integrate_weighted_monomial(r + 1, q, c, 0))


def test_integral_logarithmic_terms_are_detected():
    with pytest.raises(LogarithmicTerm):
        integrate_weighted_monomial(1, -3, F(1, 3), F(1, 2))
    with pytest.raises(LogarithmicTerm):
        integrate_weighted_monomial(5, -6, F(2, 5), 0)


def test_integral_domain_checks():
    with pytest.raises(DomainError):
        integrate_weighted_monomial(0, -4, 1, F(1, 2))
    with pytest.raises(DomainError):
        integrate_weighted_monomial(0, 0, 2, F(1, 2))
    with pytest.raises(DomainError):
        integrate_weighted_monomial(-1, 0, 0, F(1, 2))
    with pytest.raises(DomainError):
        integrate_weighted_monomial(1, F(1, 2), 0, F(1, 2))


# -- multivariate helper -------------------------------------------------------

def test_multipoly_basics():
    p = MultiPoly(2, {(1, 1): 1, (2, 0): 1})
    assert not p.is_affine()
    assert MultiPoly(2, {(1, 0): 1, (0, 1): 2, (0, 0): 1}).is_affine()


@pytest.mark.parametrize("n_vars, terms", [(1, {(1.5,): 1}), (1, {("2",): 1}), (1.5, None)],
                         ids=["fractional-exponent", "str-exponent", "fractional-n_vars"])
def test_multipoly_rejects_non_integer_exponents_and_counts(n_vars, terms):
    with pytest.raises(DomainError):
        MultiPoly(n_vars, terms)
