"""Twin detection: distinct rays sharing one momentum profile.

Three settings are covered.  Profile twins on the general family are found by
coefficient matching: demanding that the base profile F also solves the ODE
at a different parameter c' leaves quadratics in c' over Z, read off
profile._ode_map, and the partners are the rational roots of their gcd.  The
p = 4 sphere-times-surface case has closed forms.  The weighted scalar
curvature of the toric product case over the standard simplex is a closed
form in the potential's coefficients.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Tuple

from .errors import DomainError, InternalInconsistency
from .exactmath import IntPoly, MultiPoly, UniPoly, isolate_roots
from .profile import _certify, _ode_map, _right_side, compute_profile


@dataclass(frozen=True)
class TwinReport:
    """Partners of base_c sharing its profile polynomial exactly.

    partners is a tuple of rational parameters, in increasing order; by
    find_profile_twins it holds at most one.  unresolved is always empty:
    it would hold common roots of the matching system proven irrational, and
    the gcd of that system is (c' - c) times a polynomial of degree <= 1, so
    every root is rational.  The field stays in the report and the twins
    document.
    """

    base_c: Fraction
    partners: tuple
    shared_F: UniPoly
    unresolved: tuple = ()


_ISOLATION_WIDTH = Fraction(1, 10 ** 6)


def _twin_equations(setup, rows):
    """Rows in Z[c'] whose common vanishing makes the profile F = P/D of the
    integer rows (D, P1, P2, P_0..P_p) the profile at c'.

    profile gives every set of rows with D > 0, so profile._ode_map gives
    L D > 0 times the z^k coefficient of T0 + T1 c' + T2 c'^2, the ODE
    defect of F at c' less its affine part, as a row (e0, e1, e2).  A partner
    needs the rows of z^p..z^3 to vanish and E0 + E1 z + E2 z^2 to be
    divisible by 1 + xz:
    with x = xn/xd, the last row xn^2 E0 - xn xd E1 + xd^2 E2 is xd^2 times
    its value at z = -1/x.
    """
    D, _, _, *P = rows
    L, _, right = _right_side(setup.p, setup.a, setup.s, setup.x)
    E = [IntPoly(e) for e in _ode_map(L, right, D, P)]
    xn, xd = setup.x.numerator, setup.x.denominator
    return E[:2:-1] + [xn * xn * E[0] - xn * xd * E[1] + xd * xd * E[2]]


def find_profile_twins(setup, c):
    """All c' in (-1, 1) whose profile equals the one at c, certified.

    The partners are the roots other than c of g, the gcd over Z of the
    matching system of _twin_equations, isolated in (-1, 1) to the width
    _ISOLATION_WIDTH and identified exactly; the width changes no answer.

    The system never vanishes identically.  If it did, with F the base
    profile and T0, T1 as in _twin_equations, the z^m coefficients of
    T0 = F'' - source (m >= 3) would give F_5 = ... = F_p = 0, and the z^3
    coefficient of T1, 8(4-p) F_4 with p >= 5, would give F_4 = 0.  The
    endpoint data then force F = (1-z^2)(1+xz), and the divisibility equation
    of T0 reads x^2 (4 - 2sx) = 0, so s = 2/x > 2 as 0 < x < 1.  But
    s = 2(1-g2)/k <= 2.

    A common root c' of the system is a twin.  There the ODE defect of F is
    a polynomial of degree <= 2 divisible by 1 + xz, so F solves the ODE at
    c' for some (A1', A2') and meets all four endpoint conditions.  Let H be
    F minus the profile at c': it solves the ODE with right side
    -(d1 z + d2)(1 + xz) and zero endpoint data.  With H = (c'z+1)^(p-1) G,
    G'' = -(d1 z + d2)(1 + xz)/(c'z+1)^(p+1) and G, G' vanish at +-1, so
    integrating G'' against 1 and t gives the Gram system of (1, t) for the
    weight (1 + xt)/(c't+1)^(p+1), positive on (-1, 1), applied to
    (d2, d1).  So d = 0, then G'' = 0 and G = 0: H = 0 (the uniqueness
    argument of the profile module).

    There is at most one partner, and it is rational.  Each equation is a
    quadratic in c' that vanishes at c' = c, since F is the profile at c; so
    g = (c' - c) h with deg h <= 1.  g(c) = 0 is the one check of the
    system against the base profile, and an irrational root of g cannot
    occur.
    """
    base = compute_profile(setup, c)
    nontrivial = [eq for eq in _twin_equations(setup, base.rows) if eq]
    if not nontrivial:
        raise InternalInconsistency(
            f"twin matching system vanished identically at c={base.c}")
    common = reduce(lambda f, g: f.remainder_sequence(g)[-1], nontrivial)
    if common.homogeneous(base.c):
        raise InternalInconsistency(
            f"twin matching system does not vanish at its base ray c={base.c}")
    partners = []
    for root in isolate_roots(common, -1, 1, _ISOLATION_WIDTH):
        if root.exact_value is None:
            raise InternalInconsistency(
                f"twin matching system has an irrational root at c={base.c}")
        if root.exact_value != base.c:
            partners.append(root.exact_value)
    return TwinReport(base_c=base.c, partners=tuple(partners), shared_F=base.F)


def cp1_profile(k_scal, c):
    """Closed-form profile data for the weight-4 sphere-bundle case.

    Returns {"H": UniPoly, "A": Fraction, "B": Fraction}, the profile of the
    p = 4 ODE with right-hand side k(1+cz)^2 - Az - B and the endpoint
    conditions of x = 0.  That is the profile ODE at p = 4, x = 0 and
    a = k/2, s = 0 (so s0 = k, s1 = 0) with (A1, A2) = (A, B), so the closed
    forms are certified by profile._certify on (1, A, B, H) cleared.
    """
    k = Fraction(k_scal)
    c = Fraction(c)
    if abs(c) >= 1:
        raise DomainError(f"need |c| < 1, got {c}")
    if k >= 0:
        raise DomainError(f"k_scal must be negative, got {k}")
    if 12 - (2 - k) * c * c <= 0:
        raise DomainError(f"positivity fails: 12 - (2 - k)c^2 <= 0 at k={k}, c={c}")
    # H = (1 - z^2)(1 + q (1 - z^2))
    q = (k + 2) * c * c / (4 * (3 - c * c))
    H = UniPoly((1 + q, 0, -1 - 2 * q, 0, q))
    A = 6 * c * (c * c * k - k + 4) / (c * c - 3)
    B = 3 * (c ** 4 * k - 2 * c ** 4 + 12 * c * c - k - 2) / (c * c - 3)
    _certify(_right_side(4, k / 2, 0, 0), c.numerator, c.denominator,
             IntPoly.from_unipoly(UniPoly([1, A, B, *H.coeffs])).coeffs,
             f"closed-form H at k={k}, c={c}")
    return {"H": H, "A": A, "B": B}


def cp1_twins(k_scal, c):
    """Partners of c in the weight-4 case: {-c}, a continuum, or none."""
    cp1_profile(k_scal, c)
    if Fraction(k_scal) == -2:
        return "continuum"
    c = Fraction(c)
    return (-c,) if c else ()


@dataclass(frozen=True)
class ToricPotential:
    """Affine potential f(x) = <v, x> + lam over the standard simplex.

    Admissibility requires f > 0 on {x_i >= -1, sum x_i <= 1}, which for
    affine f is exactly positivity at the n+1 vertices.
    """

    v: Tuple[Fraction, ...]
    lam: Fraction
    n: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"n must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "v", tuple(Fraction(vi) for vi in self.v))
        object.__setattr__(self, "lam", Fraction(self.lam))
        if len(self.v) != self.n:
            raise DomainError(f"v must have length n = {self.n}, got {len(self.v)}")
        total = sum(self.v)
        values = [self.lam - total]
        values += [self.lam + vk * (self.n + 1) - total for vk in self.v]
        if min(values) <= 0:
            raise DomainError("potential not positive on the simplex "
                              f"(vertex values {values})")


def toric_weighted_scal(d, n, p, scal1, pot):
    """Weighted scalar curvature of the product metric, fully expanded.

    scal1 is the constant scalar curvature of the dimension-d first factor.
    With H_ij = 2 delta_ij l_i - 2 l_i l_j/(n+1), l_i = 1 + x_i, the inverse
    Hessian of the simplex, the result is (scal1 + 2n) f^2 - 2(p-1) f Lf
    - p(p-1) sum_ij v_i v_j H_ij, where 2n = -sum_ij d_i d_j H_ij is the
    projective factor's curvature and Lf = -sum_ij d_i(H_ij v_j) = 2u by
    -sum_i d_i H_ik = 2 x_k.  Put u = <v, x>, sigma = sum v_i, tau = sum v_i^2,
    w = sum v_i^2 x_i, s = scal1 + 2n and k = p(p-1).  Then sum_ij v_i v_j H_ij
    = 2 tau + 2 w - 2 (sigma + u)^2/(n+1), and with f = u + lam the result is
    A u^2 + B u + C - 2k w, for
        A = s - 4(p-1) + 2k/(n+1) = scal1 - 2(2-m)(m-1)/(n+1), m = p - n,
        B = 2 lam (s - 2(p-1)) + 4k sigma/(n+1),
        C = s lam^2 - 2k tau + 2k sigma^2/(n+1).
    u^2 is a nonzero quadratic form for v != 0 and w is affine, so the result
    is affine for every v iff A = 0, iff scal1 is the value of twin_weights.
    """
    if not (isinstance(d, int) and d >= 0):
        raise DomainError(f"d must be an integer >= 0, got {d!r}")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(p, int):
        raise DomainError(f"p must be an integer, got {p!r}")
    if not isinstance(pot, ToricPotential) or pot.n != n:
        raise DomainError("pot must be a ToricPotential with matching n")
    s = Fraction(scal1) + 2 * n
    k = p * (p - 1)
    v, lam = pot.v, pot.lam
    sigma = sum(v)
    A = s - 4 * (p - 1) + Fraction(2 * k, n + 1)
    B = 2 * lam * (s - 2 * (p - 1)) + 4 * k * sigma / (n + 1)
    C = s * lam * lam - 2 * k * sum(vi * vi for vi in v) + 2 * k * sigma * sigma / (n + 1)
    terms = {(0,) * n: C}
    for i, vi in enumerate(v):
        terms[tuple(int(l == i) for l in range(n))] = (B - 2 * k * vi) * vi
        for j in range(i, n):
            exps = tuple((l == i) + (l == j) for l in range(n))
            terms[exps] = (1 + (i != j)) * A * vi * v[j]
    return MultiPoly(n, terms)


def twin_weights(d, n):
    """The two weights sharing one first-factor curvature: (n-d+1, d+n+2).

    Returns (p_low, p_high, scal1) with scal1 = -2d(d+1)/(n+1), the value
    2(2-m)(m-1)/(n+1), m = p - n, of toric_weighted_scal at both weights: m =
    1-d and m = d+2 both give (2-m)(m-1) = -d(d+1).
    """
    if not (isinstance(d, int) and d >= 0):
        raise DomainError(f"d must be an integer >= 0, got {d!r}")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    return (n - d + 1, d + n + 2, Fraction(-2 * d * (d + 1), n + 1))


def toric_csc_solutions(n, lam, l):
    """Candidate csc potentials in the equal-components normal form.

    For f = v(x_1 + ... + x_l) + lam the csc equation is the quadratic
        l(n+1-l) v^2 + lam(2l-n-1) v - lam^2 = (l v - lam)((n+1-l) v + lam) = 0,
    whose nontrivial candidates v = lam/l and v = -lam/(n-l+1) make the
    vertex value lam - l v, or lam + v(n-l+1), exactly 0: neither is
    admissible (strictly positive at the simplex vertices), as each is
    tested.  The trivial v = 0 is included.
    """
    if not (isinstance(n, int) and n >= 2):
        raise DomainError(f"n must be an integer >= 2, got {n!r}")
    if not (isinstance(l, int) and 1 <= l < n):
        raise DomainError(f"l must be an integer with 1 <= l < n, got {l!r}")
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    candidates = [Fraction(lam, l), Fraction(-lam, n - l + 1)]

    def admissible(v):
        # vertex values of f: lam - lv at the bottom and the peaks beyond l,
        # lam + v(n-l+1) at the first l peaks
        return lam - l * v > 0 and lam + v * (n - l + 1) > 0

    solutions = [{"v": Fraction(0), "admissible": True}]
    solutions += [{"v": v, "admissible": admissible(v)} for v in candidates]
    return {
        "solutions": solutions,
        "any_admissible": any(sol["admissible"] for sol in solutions[1:]),
    }
