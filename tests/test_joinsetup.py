"""Setup data, join smoothness and polarization arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from sasakijoin import (
    JoinSpec,
    PolarizationInput,
    ProductSetup,
    cone_dim,
    join_is_smooth,
    join_vectors,
    make_setup,
    primitive_polarization,
    stabilizer_order,
)
from sasakijoin.errors import DomainError

F = Fraction


# -- ProductSetup -------------------------------------------------------------

def test_make_setup_computes_s_and_p():
    setup = make_setup(d=1, a=F(-43137, 1337), genus_g2=101, degree_k=1,
                       x=F(1, 2))
    assert setup.s == -200
    assert setup.p == 5
    assert make_setup(d=1, a=1, genus_g2=1, degree_k=5, x=F(1, 2)).s == 0
    six = make_setup(d=2, a=F(3), genus_g2=4, degree_k=2, x=F(9, 10))
    assert six.s == -3
    assert six.p == 6
    assert make_setup(d=1, a="19/3", genus_g2=3, degree_k=1, x="1/2").a == F(19, 3)


@pytest.mark.parametrize("kwargs", [
    dict(d=0, a=1, genus_g2=0, degree_k=1, x=F(1, 2)),
    dict(d=1, a=1, genus_g2=-1, degree_k=1, x=F(1, 2)),
    dict(d=1, a=1, genus_g2=0, degree_k=0, x=F(1, 2)),
    dict(d=1, a=1, genus_g2=0, degree_k=1, x=F(0)),
    dict(d=1, a=1, genus_g2=0, degree_k=1, x=F(1)),
    dict(d=1, a=1, genus_g2=0, degree_k=1, x=F(3, 2)),
    dict(d=F(3, 2), a=1, genus_g2=0, degree_k=1, x=F(1, 2)),
])
def test_make_setup_rejects_bad_inputs(kwargs):
    with pytest.raises(DomainError):
        make_setup(**kwargs)


def test_product_setup_derives_s_and_p():
    setup = ProductSetup(d=2, a=F(3), genus_g2=4, degree_k=2, x=F(9, 10))
    assert setup.s == -3
    assert setup.p == 6
    assert setup == make_setup(d=2, a=3, genus_g2=4, degree_k=2, x="9/10")
    with pytest.raises(TypeError):
        ProductSetup(d=1, a=F(0), genus_g2=0, degree_k=1, s=F(2), x=F(1, 2))
    with pytest.raises(TypeError):
        ProductSetup(d=1, a=F(0), genus_g2=0, degree_k=1, x=F(1, 2), p=5)


# -- join smoothness ----------------------------------------------------------

def test_join_spec_validation():
    spec = JoinSpec(l1=2, l2=1, order1=2, order2=2)
    assert spec.l1 == 2
    with pytest.raises(DomainError):
        JoinSpec(l1=2, l2=4, order1=1, order2=1)
    with pytest.raises(DomainError):
        JoinSpec(l1=0, l2=1, order1=1, order2=1)
    with pytest.raises(DomainError):
        JoinSpec(l1=1, l2=1, order1=1, order2=-2)


def test_join_is_smooth_examples():
    assert not join_is_smooth(JoinSpec(l1=2, l2=1, order1=2, order2=2))
    assert not join_is_smooth(JoinSpec(l1=3, l2=2, order1=3, order2=2))
    assert join_is_smooth(JoinSpec(l1=1, l2=1, order1=2, order2=3))
    assert join_is_smooth(JoinSpec(l1=2, l2=1, order1=1, order2=1))


def test_join_smoothness_is_symmetric():
    rng = random.Random(3)
    for _ in range(40):
        l1 = rng.randint(1, 9)
        l2 = rng.randint(1, 9)
        if math.gcd(l1, l2) != 1:
            continue
        o1, o2 = rng.randint(1, 8), rng.randint(1, 8)
        spec = JoinSpec(l1=l1, l2=l2, order1=o1, order2=o2)
        swapped = JoinSpec(l1=l2, l2=l1, order1=o2, order2=o1)
        assert join_is_smooth(spec) == join_is_smooth(swapped)


def _brute_stabilizer(spec, m1, m2):
    # circle elements fixing a point pair with local orders (m1, m2): t must
    # lie in (1/(m1 l2)) Z and (1/(m2 l1)) Z simultaneously
    t1 = {F(k, m1 * spec.l2) for k in range(m1 * spec.l2)}
    t2 = {F(k, m2 * spec.l1) for k in range(m2 * spec.l1)}
    return len(t1 & t2)


def _divisors(n):
    return [m for m in range(1, n + 1) if n % m == 0]


def test_stabilizer_order_matches_subgroup_count():
    rng = random.Random(5)
    cases = 0
    while cases < 10:
        l1, l2 = rng.randint(1, 6), rng.randint(1, 6)
        if math.gcd(l1, l2) != 1:
            continue
        spec = JoinSpec(l1=l1, l2=l2, order1=rng.randint(1, 8),
                        order2=rng.randint(1, 8))
        orders = []
        for m1 in _divisors(spec.order1):
            for m2 in _divisors(spec.order2):
                got = stabilizer_order(spec, m1, m2)
                assert got == _brute_stabilizer(spec, m1, m2)
                orders.append(got)
        # the extreme case realizes the largest stabilizer ...
        assert max(orders) == stabilizer_order(spec, spec.order1, spec.order2)
        # ... and smoothness is exactly its triviality
        assert join_is_smooth(spec) == (max(orders) == 1)
        cases += 1


def test_stabilizer_order_requires_divisors():
    spec = JoinSpec(l1=1, l2=1, order1=4, order2=6)
    assert stabilizer_order(spec, 4, 6) == 2
    with pytest.raises(DomainError):
        stabilizer_order(spec, 3, 6)
    with pytest.raises(DomainError):
        stabilizer_order(spec, 4, 5)


# -- cone dimension and distinguished vectors ---------------------------------

def test_cone_dim():
    assert cone_dim(1, 2) == 2
    assert cone_dim(1, 1) == 1
    assert cone_dim(2, 3) == 4
    with pytest.raises(DomainError):
        cone_dim(0, 1)


def test_join_vectors():
    v = join_vectors(1, 1)
    assert v["reeb"] == (F(1, 2), F(1, 2))
    assert v["lvec"] == (F(1, 2), F(-1, 2))
    assert v["contact"] == (1, 1)
    w = join_vectors(2, 3)
    assert w["reeb"] == (F(1, 4), F(1, 6))
    assert w["contact"] == (2, 3)
    u = join_vectors(5, 1)
    assert u["lvec"] == (F(1, 10), F(-1, 2))
    for vec in (v, w, u):
        l1, l2 = vec["contact"]
        r, l = vec["reeb"], vec["lvec"]
        assert (r[0] + l[0], r[1] + l[1]) == (F(1, l1), 0)
        assert (r[0] - l[0], r[1] - l[1]) == (0, F(1, l2))


def test_join_vectors_validation():
    with pytest.raises(DomainError):
        join_vectors(2, 4)
    with pytest.raises(DomainError):
        join_vectors(0, 1)
    with pytest.raises(DomainError):
        join_vectors(1, F(3, 2))


# -- primitive polarization ----------------------------------------------------

def test_primitive_polarization_integer_class():
    out = primitive_polarization(PolarizationInput(class_coeffs=(6, 4)))
    assert out["primitive"] == (3, 2)
    assert out["scale"] == 2


def test_primitive_polarization_rational_and_signed():
    out = primitive_polarization(PolarizationInput(class_coeffs=(F(3, 2), 1)))
    assert out["primitive"] == (3, 2)
    assert out["scale"] == F(1, 2)
    neg = primitive_polarization(PolarizationInput(class_coeffs=(-6, -4)))
    assert neg["primitive"] == (3, 2)
    assert neg["scale"] == -2
    padded = primitive_polarization(PolarizationInput(class_coeffs=(0, 5)))
    assert padded["primitive"] == (0, 1)
    assert padded["scale"] == 5


def test_primitive_polarization_rejections():
    with pytest.raises(DomainError):
        primitive_polarization(PolarizationInput(class_coeffs=(1, -1)))
    with pytest.raises(DomainError):
        primitive_polarization(PolarizationInput(class_coeffs=(0, 0)))
    with pytest.raises(DomainError):
        primitive_polarization(PolarizationInput(class_coeffs=()))
    with pytest.raises(DomainError):
        primitive_polarization(PolarizationInput(class_coeffs=(2, 4), ke_index=-2))
    with pytest.raises(DomainError):
        primitive_polarization(
            PolarizationInput(class_coeffs=(2, 4), ke_index=2, d=1))


def test_primitive_polarization_reconstruction_property():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 4)
        sign = rng.choice((1, -1))
        coeffs = tuple(sign * F(rng.randint(0, 12), rng.randint(1, 6))
                       for _ in range(n))
        if all(v == 0 for v in coeffs):
            continue
        out = primitive_polarization(PolarizationInput(class_coeffs=coeffs))
        assert math.gcd(*out["primitive"]) == 1
        assert tuple(out["scale"] * v for v in out["primitive"]) == coeffs


def test_primitive_polarization_canonical_weights():
    out = primitive_polarization(
        PolarizationInput(class_coeffs=(2,), ke_index=-2, d=1))
    assert (out["l1"], out["l2"]) == (1, 1)
    out = primitive_polarization(
        PolarizationInput(class_coeffs=(6,), ke_index=-6, d=2))
    assert (out["l1"], out["l2"]) == (2, 1)
    # an index divisible by d+1 always lands on l2 == 1
    for d in range(1, 5):
        for mult in range(1, 4):
            out = primitive_polarization(
                PolarizationInput(class_coeffs=(1,), ke_index=-(d + 1) * mult, d=d))
            assert out["l2"] == 1
            assert out["l1"] == mult
