"""The integer Bernstein kernel and the whole-cone certificate of scan.

sympy is the oracle for the coefficients: a box's scaled coefficients, put
back on the Bernstein basis, must give the polynomial itself.  The
certificate is checked against the verdicts of per-ray solves (classify_ray)
on dense ray grids, against a polynomial made nonpositive on purpose, and on
the benchmark's scan pool.
"""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
import sympy as sp

from sasakijoin import classify_ray, make_setup, profile_table
from sasakijoin.conescan import _cone_rows
from sasakijoin.exactmath import certify_positive
from sasakijoin.exactmath import bernstein
from sasakijoin.exactmath.bernstein import _box_coefficients
from support import (random_setup, random_x, scan_pool, setup_moat, setup_of,
                     setup_twin_pair)

F = Fraction
lam, mu = sp.symbols("lam mu")
# the one setup of the scan pool with an extremality boundary
BOUNDARY = ["--d", "1", "--a", "43/9", "--g2", "4", "--k", "1", "--x", "8/9"]


def _q(value):
    return sp.Rational(value.numerator, value.denominator)


def _random_side(rng):
    lo = F(rng.randint(-30, 30), rng.randint(1, 12))
    return lo, lo + F(rng.randint(1, 30), rng.randint(1, 12))


def _certified(setup):
    return certify_positive(_cone_rows(profile_table(setup)))


def test_scaled_coefficients_match_the_bernstein_expansion():
    rng = random.Random(31)
    for _ in range(25):
        n, m = rng.randint(0, 4), rng.randint(0, 5)
        # ragged rows: a short row has zero high coefficients
        rows = [[rng.randint(-50, 50) for _ in range(rng.randint(0, m + 1))]
                for _ in range(n)] + [[rng.randint(-50, 50) for _ in range(m + 1)]]
        rng.shuffle(rows)
        (z0, z1), (c0, c1) = z_side, c_side = _random_side(rng), _random_side(rng)
        coeffs = _box_coefficients(rows, z_side, c_side)
        assert (len(coeffs), {len(row) for row in coeffs}) == (n + 1, {m + 1})
        # d^n e^m H(z(lam), c(mu)) = sum coeffs[i][j] lam^i (1-lam)^(n-i) mu^j (1-mu)^(m-j)
        d, e = lcm(z0.denominator, z1.denominator), lcm(c0.denominator, c1.denominator)
        z = _q(z0) + _q(z1 - z0) * lam
        c = _q(c0) + _q(c1 - c0) * mu
        H = sum(v * z ** i * c ** j for i, row in enumerate(rows) for j, v in enumerate(row))
        basis = sum(v * lam ** i * (1 - lam) ** (n - i) * mu ** j * (1 - mu) ** (m - j)
                    for i, row in enumerate(coeffs) for j, v in enumerate(row))
        assert sp.expand(basis - d ** n * e ** m * H) == 0


def test_certificate_on_small_polynomials():
    # 2 + zc has the coefficients 3, 1, 1, 3 on [-1, 1]^2; 1 + zc is 0 at
    # the corner (1, -1)
    assert certify_positive([[2], [0, 1]]) == 1
    assert certify_positive([[1], [0, 1]]) is None
    assert certify_positive([[]]) is None and certify_positive([[], [0]]) is None
    assert certify_positive([[0], [1]], box=((1, 2), (0, 1))) == 1
    # 16z^2 - 16z + 5 >= 1 has the coefficients 5, -3, 5 on [0, 1], so it
    # is proven after a split; 16z^2 - 16z + 3 is 3 at both ends and -1 at
    # z = 1/2, so no cover within the cap proves it
    box = ((0, 1), (0, 1))
    assert certify_positive([[5], [-16], [16]], box=box) == 2
    assert certify_positive([[3], [-16], [16]], box=box) is None


def test_certificate_is_sound_on_dense_ray_grids():
    # whenever the certificate holds, no ray of a 1,000-ray grid is
    # non-extremal by its own solve (classify_ray); the moat family mixes
    # moats with fully extremal setups
    rng = random.Random(1986)
    setups = [setup_moat(x) for x in (F(1, 2), F(8, 10), F(9, 10))]
    for p in range(5, 9):
        setups.append(random_setup(rng, d=p - 4))
        setups.append(make_setup(d=p - 4, a=F(rng.randint(1, 60), rng.randint(1, 12)),
                                 genus_g2=rng.randint(0, 5), degree_k=rng.randint(1, 6),
                                 x=random_x(rng, 12)))
    grid = [F(-1) + F(2 * i, 1001) for i in range(1, 1001)]
    certified = 0
    for setup in setups:
        table = profile_table(setup)
        if certify_positive(_cone_rows(table)) is None:
            continue
        certified += 1
        assert all(classify_ray(setup, c).extremal for c in grid)
    assert certified >= 8
    # the separated moat is not extremal at c = 0, so it cannot be certified
    assert _certified(setup_moat(F(9, 10))) is None


def test_a_flipped_coefficient_fails_the_certificate():
    rows = _cone_rows(profile_table(setup_twin_pair()))
    assert certify_positive(rows) is not None
    points = [F(i, 4) for i in range(-4, 5)]
    refused = 0
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not v:
                continue
            flipped = [list(r) for r in rows]
            flipped[i][j] = -v
            values = (sum(h * z ** k * c ** l for k, r in enumerate(flipped)
                          for l, h in enumerate(r)) for z in points for c in points)
            if any(value <= 0 for value in values):
                # H is not positive on the square, so no cover may prove it
                assert certify_positive(flipped) is None
                refused += 1
    # 13 of the 20 flips, among them the constant coefficient H(0, 0) > 0
    assert rows[0][0] > 0 and refused == 13


def test_the_scan_pool_is_certified_but_for_its_boundary_setup():
    pool = scan_pool()
    assert len(pool) == 48
    boxes = {tuple(argv): _certified(setup_of(argv)) for argv in pool}
    failed = [argv for argv, count in boxes.items() if count is None]
    assert failed == [("scan", *BOUNDARY)]
    assert Counter(boxes.values()) == {1: 36, 2: 6, 4: 5, None: 1}


@pytest.mark.parametrize("cap", [1, 2])
def test_the_cap_bounds_the_boxes(monkeypatch, cap):
    # the twin pair and 16z^2 - 16z + 5 on [0, 1]^2 need two boxes each
    monkeypatch.setattr(bernstein, "MAX_BOXES", cap)
    want = None if cap == 1 else 2
    assert certify_positive(_cone_rows(profile_table(setup_twin_pair()))) == want
    assert certify_positive([[5], [-16], [16]], box=((0, 1), (0, 1))) == want
