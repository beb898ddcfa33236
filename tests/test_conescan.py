"""Full cone scans: certified regions, moats, ray classification, slopes."""

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy as sp

from sasakijoin import (
    ExtremalProfile,
    ProfileTable,
    classify_ray,
    compute_profile,
    cscS_check,
    make_setup,
    profile_table,
    exact_divide,
    is_positive_on_open,
    scan,
    slope,
    UniPoly,
)
import sasakijoin.cli as cli
import sasakijoin.conescan as conescan
import sasakijoin.render as render
from sasakijoin.conescan import rows_extremal
from sasakijoin.errors import DomainError
from support import (
    ONE_MINUS_Z2,
    profile_at,
    proportional,
    random_c,
    random_setup,
    scan_pool,
    setup_moat,
    setup_of,
    setup_no_csc,
    setup_positive_example,
    setup_three_roots,
    setup_twin_pair,
)

F = Fraction


# -- single-ray classification ---------------------------------------------------

def test_classify_ray_examples():
    ray = classify_ray(setup_no_csc(), F(2, 5))
    assert not ray.extremal
    assert ray.cscS
    assert ray.c == F(2, 5)

    ray0 = classify_ray(setup_three_roots(), F(0))
    assert not ray0.extremal

    ray9 = classify_ray(setup_three_roots(), F(9, 10))
    assert ray9.extremal and ray9.cscS
    cofactor = exact_divide(ray9.F, ONE_MINUS_Z2)
    display = UniPoly((10, -9)) * UniPoly((10, 9)) ** 2 * F(26353, 2000)
    assert proportional(display, cofactor)
    assert is_positive_on_open(cofactor, -1, 1)


@pytest.mark.parametrize("p", range(5, 11))
def test_is_extremal_matches_sympy_near_the_cone_ends(p):
    # the integer rows of a profile are largest near c = +-1; the verdict
    # reads them, and sympy decides extremality from F as: G = F/(1-z^2) has
    # no real root in (-1, 1) and G(0) > 0
    z = sp.Symbol("z")
    rng = random.Random(p)
    end = 1 - F(1, 2 ** 30)
    rays = [-end, end, F(0)] + [random_c(rng) for _ in range(3)]
    for a, x in ((-40, F(1, 2)), (-5, F(9, 10))):
        table = profile_table(make_setup(d=p - 4, a=a, genus_g2=3, degree_k=1, x=x))
        for c in rays:
            profile = profile_at(table, c)
            G = sp.Poly([sp.Rational(v.numerator, v.denominator)
                         for v in reversed(profile.F.coeffs)], z).exquo(sp.Poly(1 - z * z, z))
            want = (G.eval(0) > 0
                    and not any(bool(-1 < r) and bool(r < 1) for r in G.real_roots()))
            assert rows_extremal(profile.rows) == want


# -- slope coordinates ------------------------------------------------------------

def test_slope_examples():
    assert slope(F(0)) == 1
    assert slope(F(9, 10)) == F(1, 19)
    assert slope(F(-1, 2)) == 3
    with pytest.raises(DomainError):
        slope(F(-1))


def test_slope_monotone_and_reciprocal():
    samples = [F(k, 12) for k in range(-11, 12)]
    values = [slope(c) for c in samples]
    assert all(a > b for a, b in zip(values, values[1:]))
    for c in samples:
        assert slope(c) * slope(-c) == 1
    assert slope(F(1)) == 0


# -- scan structure ----------------------------------------------------------------

def test_scan_validates_inputs():
    setup = setup_positive_example()
    with pytest.raises(DomainError):
        scan(setup, grid_n=7)
    with pytest.raises(DomainError):
        scan(setup, grid_n=F(33, 2))
    with pytest.raises(DomainError):
        scan(setup, grid_n=16, boundary_width=0)


def test_scan_without_any_positive_ray():
    report = scan(setup_no_csc(), grid_n=8)
    assert report.extremal_intervals == ()
    assert len(report.moats) == 1
    moat = report.moats[0]
    assert moat.left == (F(-1), F(-1))
    assert moat.right == (F(1), F(1))
    assert len(report.csc_rays) == 1
    entry = report.csc_rays[0]
    assert entry.root.exact_value == F(2, 5)
    assert entry.genuine is False
    assert not entry.contested
    assert report.connectivity == "sampled"


def test_scan_separated_moat_structure():
    report = scan(setup_moat(F(9, 10)), grid_n=33)
    assert len(report.extremal_intervals) == 2
    assert len(report.moats) == 1
    left, moat, right = (report.extremal_intervals[0], report.moats[0],
                         report.extremal_intervals[1])
    # regions interleave by sharing their transition brackets
    assert left.right == moat.left
    assert moat.right == right.left
    assert left.left == (F(-1), F(-1))
    assert right.right == (F(1), F(1))
    # transition brackets honor the refinement width
    for lo, hi in (moat.left, moat.right):
        assert hi - lo <= report.boundary_width

    rays = report.csc_rays
    assert len(rays) == 3
    assert [e.genuine for e in rays] == [True, False, True]
    assert rays[2].root.exact_value == F(9, 10)
    # genuine roots live inside certified extremal regions, the spurious one
    # inside the moat
    assert rays[0].root.hi < moat.left[0]
    assert moat.left[1] < rays[1].root.lo and rays[1].root.hi < moat.right[0]
    assert moat.right[1] < rays[2].root.lo


def test_a_sampled_scan_does_not_see_past_its_outermost_rays():
    # this setup turns non-extremal between c = -99/100 and -999/1000, beyond
    # the outermost grid ray -16/17 of the default grid, so the sampled scan
    # reports one extremal region reaching both ends of the cone and no moat;
    # a scan that covers the ends has to find a moat there
    setup = make_setup(2, F(-67, 6), 6, 4, F(1, 2))
    report = scan(setup)
    assert report.connectivity == "sampled"
    assert report.whole_cone_boxes is None
    assert report.moats == ()
    (region,) = report.extremal_intervals
    assert (region.left, region.right) == ((F(-1), F(-1)), (F(1), F(1)))
    ends = (report.rays[0], report.rays[-1])
    assert [ray.c for ray in ends] == [F(-16, 17), F(16, 17)]
    assert all(ray.extremal for ray in ends)
    assert not classify_ray(setup, F(-999, 1000)).extremal
    assert classify_ray(setup, F(-99, 100)).extremal


def test_scan_rays_match_single_ray_classification():
    # scan reads every ray off one profile table; classify_ray solves each
    rng = random.Random(67)
    setups = [setup_three_roots(), setup_moat(F(9, 10))]
    setups += [random_setup(rng, d=d) for d in (1, 2, 3)]
    setups += [setup_of(argv) for argv in scan_pool()[::8]]
    assert len(setups) == 11
    for setup in setups:
        report = scan(setup, grid_n=33)
        assert len(report.rays) == 33
        slope_map = render.scan_document(report)["slope_map"]
        assert len(slope_map) == 33
        for ray, entry in zip(report.rays, slope_map):
            c, m = entry["c"], entry["slope"]
            prof = compute_profile(setup, ray.c)
            assert ray == classify_ray(setup, ray.c)
            assert ray.F == prof.F
            assert ray.cscS == (prof.A1 - ray.c * prof.A2 == 0)
            assert c == ray.c and m == (1 - c) / (1 + c)


def _count_builds(monkeypatch):
    """Counts of the Fractions and ExtremalProfiles built from here on."""
    count = {"Fraction": 0, "ExtremalProfile": 0}
    new, init = Fraction.__new__, ExtremalProfile.__init__

    def counting_new(cls, *args, **kwargs):
        count["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        count["ExtremalProfile"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(ExtremalProfile, "__init__", counting_init)
    return count


def test_a_proven_pool_scan_builds_no_profile(monkeypatch):
    # a grid ray is read off the table's integer rows: its c, the p+1
    # coefficients of F and its slope are its only Fractions; the rest is
    # the cscS roots (54 for this setup's one root)
    setup = setup_of(scan_pool()[1])
    assert setup.p == 5
    count = _count_builds(monkeypatch)
    report = scan(setup, grid_n=33)
    assert report.connectivity == "proven" and len(report.csc_rays) == 1
    assert count["ExtremalProfile"] == 0
    assert count["Fraction"] <= 33 * (setup.p + 3) + 60


def test_the_ray_verdicts_run_no_fraction_arithmetic(monkeypatch):
    # cscS_check reads m P1 == n P2 off the rows; slope builds its result
    profiles = [compute_profile(setup_no_csc(), c) for c in (F(2, 5), F(1, 3), F(-7, 9))]
    rays, slopes = (F(9, 10), F(-1, 2), 0, F(1)), (F(1, 19), F(3), F(1), F(0))
    count = _count_builds(monkeypatch)
    assert [cscS_check(prof) for prof in profiles] == [True, False, False]
    assert count["Fraction"] == 0
    assert tuple(slope(c) for c in rays) == slopes
    assert count["Fraction"] == 4


@pytest.fixture
def no_table(monkeypatch):
    # a limit is checked before any work: the table is never built
    def refuse(setup):
        raise AssertionError("profile_table called")

    monkeypatch.setattr(conescan, "profile_table", refuse)


def test_scan_rejects_a_grid_past_the_cap(no_table, capsys):
    setup = setup_positive_example()
    for grid_n in (conescan.GRID_N_MAX + 1, 10 ** 11):
        with pytest.raises(DomainError, match="grid_n"):
            scan(setup, grid_n=grid_n)
        code = cli.main(["scan", "--d", "1", "--a", "19/3", "--g2", "3", "--k", "1",
                         "--x", "1/2", "--grid-n", str(grid_n)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("configuration error: grid_n")


def test_scan_rejects_a_width_below_the_floor(no_table, capsys):
    setup = setup_positive_example()
    for width in (conescan.BOUNDARY_WIDTH_MIN / 2, F(1, 10 ** 4000), F(-1, 4)):
        with pytest.raises(DomainError, match="boundary_width"):
            scan(setup, boundary_width=width)
        code = cli.main(["scan", "--d", "1", "--a", "19/3", "--g2", "3", "--k", "1",
                         "--x", "1/2", "--boundary-width", str(width)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "configuration error: boundary_width must be at least 1/2^256\n"
    with pytest.raises(AssertionError, match="profile_table called"):
        scan(setup, boundary_width=conescan.BOUNDARY_WIDTH_MIN)


def test_scan_refinement_is_monotone():
    setup = setup_three_roots()
    coarse = scan(setup, grid_n=9, boundary_width=F(1, 64))
    fine = scan(setup, grid_n=19, boundary_width=F(1, 64))
    flags = {ray.c: (ray.extremal, ray.cscS) for ray in fine.rays}
    # grids share the points -1 + i/5; certified classifications never flip
    shared = 0
    for ray in coarse.rays:
        if ray.c in flags:
            shared += 1
            assert flags[ray.c] == (ray.extremal, ray.cscS)
    assert shared == 9
    for report in (coarse, fine):
        pairs = [(e["c"], e["slope"]) for e in render.scan_document(report)["slope_map"]]
        assert [c for c, _ in pairs] == [ray.c for ray in report.rays]
        assert [c for c, _ in pairs] == sorted(c for c, _ in pairs)
        assert all(s1 > s2 for (_, s1), (_, s2) in zip(pairs, pairs[1:]))


def test_scan_surfaces_contested_roots():
    # a deliberately coarse width leaves one root bracket straddling a moat
    # boundary: the scan must report the conflict instead of resolving it
    report = scan(setup_moat(F(9, 10)), grid_n=8, boundary_width=F(1, 4))
    contested = [e for e in report.csc_rays if e.contested]
    assert len(contested) == 1
    entry = contested[0]
    assert entry.genuine is None
    assert entry.root.lo < report.moats[0].left[1]
    settled = [e for e in report.csc_rays if not e.contested]
    assert all(e.genuine is not None for e in settled)


def test_scan_verdicts_match_per_ray_solves():
    # every verdict the scan reads off H on its table equals the one of an
    # independent solve at that ray: grid rays, both ends of every boundary
    # bracket and the root ends (or exact roots) of every cscS label.  No
    # setup here is proven extremal, so each verdict is a Sturm test on H:
    # the moat (grid 16 and 33), the p = 7 three-roots setup and setup_no_csc
    p7 = make_setup(d=3, a=45, genus_g2=11, degree_k=3, x=F(7, 9))
    brackets = 0
    for setup, grid_n in ((setup_moat(F(9, 10)), 16), (setup_moat(F(9, 10)), 33),
                          (p7, 16), (setup_no_csc(), 8)):
        report = scan(setup, grid_n=grid_n)
        assert report.connectivity == "sampled"

        def extremal(c):
            return classify_ray(setup, c).extremal

        assert all(ray.extremal == extremal(ray.c) for ray in report.rays)
        regions = sorted([(r, True) for r in report.extremal_intervals]
                         + [(r, False) for r in report.moats],
                         key=lambda item: item[0].left)
        for (left, flag), (right, _) in zip(regions, regions[1:]):
            lo, hi = left.right
            assert (lo, hi) == right.left
            assert (extremal(lo), extremal(hi)) == (flag, not flag)
            brackets += 1
        for entry in report.csc_rays:
            root = entry.root
            if root.exact_value is not None:
                assert entry.genuine == extremal(root.exact_value)
            else:
                ends = (extremal(root.lo), extremal(root.hi))
                assert entry.contested == (ends[0] != ends[1])
                assert entry.genuine == (None if entry.contested else ends[0])
    # two boundaries in each moat scan and in the p = 7 scan
    assert brackets == 6


def test_a_sampled_scan_builds_H_once(monkeypatch):
    # H over Z[c] is built once, as the whole-cone certificate's input; each
    # ray a sampled scan probes evaluates the table's rows once and divides
    # them by 1-z^2 once, for one positivity test, and a proven scan divides
    # only for the cone
    calls = {"divide": 0, "table rows": 0}
    divide, rows_at = conescan._over_one_minus_z2, ProfileTable.rows_at

    def counting_divide(P):
        calls["divide"] += 1
        return divide(P)

    def counting_rows_at(self, c):
        calls["table rows"] += 1
        return rows_at(self, c)

    monkeypatch.setattr(conescan, "_over_one_minus_z2", counting_divide)
    monkeypatch.setattr(ProfileTable, "rows_at", counting_rows_at)
    tests = _count_positivity_tests(monkeypatch)
    # grid rays, bisection midpoints and the three roots' probes
    for grid_n, probes in ((16, 37), (33, 52)):
        calls.update({"divide": 0, "table rows": 0})
        tests.clear()
        report = scan(setup_moat(F(9, 10)), grid_n=grid_n)
        assert report.connectivity == "sampled" and len(report.moats) == 1
        assert calls == {"divide": probes + 1, "table rows": probes}
        assert len(tests) == probes
    calls.update({"divide": 0, "table rows": 0})
    assert scan(setup_moat(F(8, 10)), grid_n=33).connectivity == "proven"
    assert calls == {"divide": 1, "table rows": 33}


# -- the whole-cone certificate ------------------------------------------------------

def _count_positivity_tests(monkeypatch):
    calls = []
    test = conescan.is_positive_on_open

    def counting(*args):
        calls.append(args)
        return test(*args)

    monkeypatch.setattr(conescan, "is_positive_on_open", counting)
    return calls


def test_a_proven_cone_makes_no_positivity_test(monkeypatch):
    # the moat family at x = 8/10 is extremal on the whole cone, with three
    # cscS roots, all genuine
    calls = _count_positivity_tests(monkeypatch)
    report = scan(setup_moat(F(8, 10)), grid_n=33)
    assert calls == []
    assert report.connectivity == "proven"
    assert report.whole_cone_boxes >= 1
    assert all(ray.extremal for ray in report.rays)
    assert report.extremal_intervals == (conescan.ConeInterval((F(-1), F(-1)), (F(1), F(1))),)
    assert report.moats == ()
    assert len(report.csc_rays) == 3
    assert all(e.genuine is True and not e.contested for e in report.csc_rays)


def test_the_moat_scan_keeps_its_positivity_tests(monkeypatch):
    # 16 grid rays, the bisections of two transitions and the three roots
    calls = _count_positivity_tests(monkeypatch)
    report = scan(setup_moat(F(9, 10)), grid_n=16)
    assert len(calls) == 37
    assert (report.connectivity, report.whole_cone_boxes) == ("sampled", None)


def test_the_proof_changes_no_verdict(monkeypatch):
    # with the certificate switched off, the same setups take the ray-by-ray
    # path and report the same rays, regions and root labels
    rng = random.Random(22)
    setups = [setup_moat(F(8, 10)), setup_twin_pair(), setup_positive_example()]
    setups += [random_setup(rng, d=d) for d in (1, 2, 3)]
    proven = [scan(setup, grid_n=16) for setup in setups]
    monkeypatch.setattr(conescan, "certify_positive", lambda rows: None)
    for setup, report in zip(setups, proven):
        assert report.connectivity == "proven"
        sampled = scan(setup, grid_n=16)
        assert sampled.connectivity == "sampled"
        assert dataclasses.replace(report, whole_cone_boxes=None) == sampled
