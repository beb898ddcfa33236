"""Reproduction suite: re-derives the worked examples and frozen constants.

Each check is pure and deterministic; run() executes all of them, writes a
single reproduce.json (byte-identical across runs), and reports overall
success.  A failing check is reported, never masked.
"""

import os
from fractions import Fraction

from . import render
from .conescan import classify_ray, scan, slope
from .cscs import condition_numerator, csc_condition, csc_roots, h_poly_p5
from .exactmath import UniPoly, exact_divide
from .joinsetup import (
    JoinSpec,
    PolarizationInput,
    cone_dim,
    join_is_smooth,
    join_vectors,
    make_setup,
    primitive_polarization,
)
from .profile import compute_profile
from .twins import (
    ToricPotential,
    cp1_profile,
    cp1_twins,
    find_profile_twins,
    toric_csc_solutions,
    toric_weighted_scal,
    twin_weights,
)

_Z2 = UniPoly((1, 0, -1))  # 1 - z^2


# the worked examples; the test suite builds its setups from these too


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
    a = Fraction(125919069, 1574986) - Fraction(43137, 1337)
    return make_setup(d=2, a=a, genus_g2=101, degree_k=1, x=Fraction(1, 2))


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


def _proportional(p, q):
    """True iff p = r*q for a single nonzero rational r."""
    if p.degree != q.degree or p.degree < 0:
        return False
    ratio = Fraction(p.leading) / Fraction(q.leading)
    return p == ratio * q and ratio != 0


def _check_profile_no_csc():
    setup = setup_no_csc()
    c = Fraction(2, 5)
    expected = _Z2 * UniPoly((5, 2)) * UniPoly((-292, 191, 1820)) / 8022
    ray = classify_ray(setup, c)
    ok = (ray.F == expected
          and not ray.extremal
          and ray.cscS
          and csc_condition(setup, c) == 0)
    report = scan(setup, grid_n=16)
    ok = ok and not report.extremal_intervals and len(report.moats) == 1
    ok = ok and len(report.csc_rays) == 1
    entry = report.csc_rays[0]
    ok = (ok and entry.root.exact_value == c
          and entry.genuine is False and not entry.contested)
    return {"name": "profile-without-genuine-csc", "ok": bool(ok)}


def _check_profile_positive():
    setup = setup_positive_example()
    c = Fraction(1, 8)
    expected = _Z2 * UniPoly((8, 1)) * UniPoly((326, 142, 29)) / 2982
    ray = classify_ray(setup, c)
    ok = ray.F == expected and ray.extremal and ray.cscS
    roots = csc_roots(setup, Fraction(1, 2048))
    ok = ok and [r.exact_value for r in roots] == [c]
    return {"name": "profile-positive-csc", "ok": bool(ok)}


def _check_profile_higher_weight():
    setup = setup_resurrection()
    c = Fraction(3, 5)
    expected = (_Z2 * UniPoly((5, 3))
                * UniPoly((413335, 59909, -297891, -76401)) / 527744)
    ray = classify_ray(setup, c)
    ok = ray.F == expected and ray.extremal
    failures = sum(
        1 for cand in (Fraction(-4, 5), Fraction(-1, 2), Fraction(0),
                       Fraction(1, 5), Fraction(9, 10))
        if not classify_ray(setup, cand).extremal)
    ok = ok and failures >= 3
    return {"name": "profile-weight-six", "ok": bool(ok)}


def _check_h_factorization():
    setup = setup_three_roots()
    expected = Fraction(3, 475) * UniPoly((-9, 10)) * UniPoly((190, 543, -350, -885, 540))
    ok = h_poly_p5(setup) == expected
    roots = csc_roots(setup, Fraction(1, 10 ** 4))
    ok = ok and len(roots) == 3
    exact = [r.exact_value for r in roots if r.exact_value is not None]
    ok = ok and exact == [Fraction(9, 10)]
    approx = sorted(float(r.midpoint) for r in roots if r.exact_value is None)
    ok = (ok and abs(approx[0] - -0.601) < 5e-4 and abs(approx[1] - -0.359) < 5e-4)
    for r in roots:
        if r.exact_value is not None:
            ok = ok and classify_ray(setup, r.exact_value).extremal
        else:
            ok = (ok and classify_ray(setup, r.lo).extremal
                  and classify_ray(setup, r.hi).extremal)
    ok = ok and not classify_ray(setup, Fraction(0)).extremal
    return {"name": "h-three-roots", "ok": bool(ok)}


def _moat_profile_expected(x):
    z = UniPoly.variable()
    num = (_Z2 * (1 + x * z) ** 2
           * UniPoly((3 + x * x, -x * (3 - x * x), -2 * x * x)))
    return num / ((1 - x * x) * (3 - x * x))


_H_DISPLAY = {
    Fraction(8, 10): UniPoly((-29205, -107380, 30532, 197072, -134003, 12260, 5236)),
    Fraction(9, 10): UniPoly((-325945, -2503170, 2190983, 3348648, -3487407, 352890, 290849)),
}


def _moat_cofactor_ok(setup, x):
    numerator = condition_numerator(setup)
    cofactor = exact_divide(numerator, UniPoly((x, -1)))
    return _proportional(cofactor, _H_DISPLAY[x])


def _check_moat_family_base():
    ok = True
    for i in range(1, 11):
        x = Fraction(i, 11)
        setup = setup_moat(x)
        ok = ok and csc_condition(setup, x) == 0
        ok = ok and compute_profile(setup, x).F == _moat_profile_expected(x)
    return {"name": "moat-family-csc-at-x", "ok": bool(ok)}


def _check_moat_exhausted():
    x = Fraction(8, 10)
    setup = setup_moat(x)
    ok = setup.a == Fraction(4631, 177)
    report = scan(setup, grid_n=33)
    ok = (ok and len(report.extremal_intervals) == 1 and not report.moats
          and len(report.csc_rays) == 3
          and all(e.genuine for e in report.csc_rays))
    ok = ok and _moat_cofactor_ok(setup, x)
    return {"name": "moat-family-exhausted", "ok": bool(ok)}


def _check_moat_separated():
    x = Fraction(9, 10)
    setup = setup_moat(x)
    ok = setup.a == Fraction(76561, 1387)
    report = scan(setup, grid_n=33)
    ok = ok and len(report.extremal_intervals) == 2 and len(report.moats) == 1
    ok = ok and len(report.csc_rays) == 3
    if not ok:
        return {"name": "moat-family-separated", "ok": False}
    moat = report.moats[0]
    c_l, c_r = moat.left, moat.right
    by_mid = sorted(report.csc_rays, key=lambda e: e.root.midpoint)
    r3, r2, r1 = by_mid
    ok = (r1.root.exact_value == x and r1.genuine is True
          and r2.genuine is False and abs(float(r2.root.midpoint) - -0.120) < 5e-4
          and r3.genuine is True and abs(float(r3.root.midpoint) - -0.786) < 5e-4)
    # moat brackets: c3 < c_l < c2-interval < c_r < 9/10, with c_l < 0 < c_r
    ok = (ok and r3.root.hi < c_l[0]
          and c_l[1] < r2.root.lo and r2.root.hi < c_r[0]
          and c_r[1] < Fraction(9, 10)
          and c_l[1] < 0 < c_r[0])
    ok = ok and _moat_cofactor_ok(setup, x)
    return {"name": "moat-family-separated", "ok": bool(ok)}


def _check_twin_pair():
    setup = setup_twin_pair()
    c1, c2 = Fraction(1, 2), Fraction(-5, 6)
    x = setup.x
    z = UniPoly.variable()
    expected = _Z2 * (1 - x * z) * (1 + x * z) ** 2 / (1 - x * x)
    rep1 = find_profile_twins(setup, c1)
    rep2 = find_profile_twins(setup, c2)
    ok = (rep1.partners == (c2,) and rep2.partners == (c1,)
          and rep1.shared_F == expected == rep2.shared_F
          and not rep1.unresolved and not rep2.unresolved)
    return {"name": "profile-twin-pair", "ok": bool(ok)}


def _check_cp1_closed_forms():
    ok = True
    # k = -2 collapses to the round profile for every c
    for c in (Fraction(0), Fraction(1, 3), Fraction(-3, 5)):
        data = cp1_profile(Fraction(-2), c)
        ok = ok and data["H"] == _Z2
    data = cp1_profile(Fraction(-2), Fraction(0))
    ok = ok and data["A"] == 0 and data["B"] == 0
    cp1_profile(Fraction(-4), Fraction(1, 2))  # internal ODE checks must pass
    ok = ok and cp1_twins(Fraction(-4), Fraction(1, 3)) == (Fraction(-1, 3),)
    ok = ok and cp1_twins(Fraction(-2), Fraction(1, 3)) == "continuum"
    ok = ok and cp1_twins(Fraction(-4), Fraction(0)) == ()
    return {"name": "cp1-closed-forms", "ok": bool(ok)}


def _check_toric():
    ok = twin_weights(1, 1) == (1, 4, Fraction(-2))
    ok = ok and twin_weights(0, 3) == (4, 5, Fraction(0))
    pots = [
        ToricPotential(v=(Fraction(1, 5), Fraction(-1, 7)), lam=Fraction(3), n=2),
        ToricPotential(v=(Fraction(0), Fraction(1, 3)), lam=Fraction(2), n=2),
    ]
    for d, n, p in ((1, 2, 5), (2, 2, 6)):
        m = p - n
        scal1 = Fraction(2 * (2 - m) * (m - 1), n + 1)
        for pot in pots:
            ok = ok and toric_weighted_scal(d, n, p, scal1, pot).is_affine()
    sol = toric_csc_solutions(2, Fraction(1), 1)
    vs = [s["v"] for s in sol["solutions"]]
    ok = (ok and vs == [0, Fraction(1), Fraction(-1, 2)]
          and not sol["any_admissible"] and sol["solutions"][0]["admissible"])
    sol = toric_csc_solutions(3, Fraction(2), 2)
    ok = (ok and [s["v"] for s in sol["solutions"][1:]] == [1, -1]
          and not sol["any_admissible"])
    return {"name": "toric-twins-and-csc", "ok": bool(ok)}


def _check_join_arithmetic():
    ok = join_is_smooth(JoinSpec(l1=2, l2=3, order1=1, order2=1))
    ok = ok and not join_is_smooth(JoinSpec(l1=2, l2=1, order1=2, order2=2))
    ok = ok and not join_is_smooth(JoinSpec(l1=3, l2=2, order1=3, order2=2))
    ok = ok and cone_dim(1, 2) == 2 and cone_dim(2, 3) == 4
    vecs = join_vectors(2, 3)
    ok = (ok and vecs["reeb"] == (Fraction(1, 4), Fraction(1, 6))
          and vecs["lvec"] == (Fraction(1, 4), Fraction(-1, 6))
          and vecs["contact"] == (2, 3))
    out = primitive_polarization(PolarizationInput(class_coeffs=(6, 4)))
    ok = ok and out["primitive"] == (3, 2) and out["scale"] == 2
    out = primitive_polarization(
        PolarizationInput(class_coeffs=(1,), ke_index=-2, d=1))
    ok = ok and out["l1"] == 1 and out["l2"] == 1
    out = primitive_polarization(
        PolarizationInput(class_coeffs=(1,), ke_index=-6, d=2))
    ok = ok and out["l1"] == 2 and out["l2"] == 1
    ok = ok and slope(Fraction(9, 10)) == Fraction(1, 19) and slope(0) == 1
    return {"name": "join-arithmetic", "ok": bool(ok)}


_CHECKS = (
    _check_profile_no_csc,
    _check_profile_positive,
    _check_profile_higher_weight,
    _check_h_factorization,
    _check_moat_family_base,
    _check_moat_exhausted,
    _check_moat_separated,
    _check_twin_pair,
    _check_cp1_closed_forms,
    _check_toric,
    _check_join_arithmetic,
)


def run_checks():
    return [check() for check in _CHECKS]


def run(out_dir):
    """Run every check and write reproduce.json; returns (ok, results)."""
    results = run_checks()
    doc = render.reproduce_document(results)
    render.write_atomic(os.path.join(out_dir, "reproduce.json"), render.dump_json(doc))
    return all(r["ok"] for r in results), results
