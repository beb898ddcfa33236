"""Admissible momentum profiles for rays in the 2-dimensional sub-cone.

For a setup with fiber degree p and a ray parameter c in (-1, 1), the profile
F is the unique polynomial of degree <= p satisfying

    (cz+1)^2 F'' - 2(p-1) c (cz+1) F' + p(p-1) c^2 F
        = (cz+1)^2 (2a(1+xz) + 2sx) - (A1 z + A2)(1 + xz)

with F(+-1) = 0, F'(1) = -2(1+x), F'(-1) = 2(1-x), for some constants
(A1, A2).

Uniqueness.  The difference H of two solutions whose (A1, A2) differ by
(d1, d2) has zero endpoint data and right side -(d1 z + d2)(1 + xz).  The
operator maps (cz+1)^(p-1) G to (cz+1)^(p+1) G'', so H = (cz+1)^(p-1) G
gives G'' = -(d1 z + d2) omega(z) with omega(t) = (1 + xt)/(ct+1)^(p+1),
and G, G' vanish at +-1.  So G'' integrates to 0 against 1 and t on [-1, 1]:
(d2, d1) is in the kernel of the Gram matrix of (1, t) for the weight omega,
which is definite as omega > 0 on (-1, 1).  Thus d = 0, G'' = 0 and
G = H = 0.  A kernel vector (F_0, F_1, A1, A2) of the endpoint system of
_endpoint_solve is such an H, so that system is nonsingular for |c| < 1.

The z^k coefficient of the ODE is written once, over Z: _right_side holds
the right side and _ode_map the left.  A profile is one set of integer rows
(D, P1, P2, P_0..P_p), F = P/D and (A1, A2) = (P1, P2)/D, which
_endpoint_solve derives at one ray c = n/m for compute_profile, or once over
Z[c] for profile_table (F(z; c) = P(z, c)/D(c) for every ray of a setup).
_certify checks the rows exactly through the same map, also for the p = 4
closed form of twins.cp1_profile, and _read divides them by D and keeps
them in the profile: the extremal verdict (conescan) and the twin equations
(twins) read the rows, not F.  Moments enter this module only through the
proof above; the cleared moments behind the cscS numerator are in cscs.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

from .errors import DomainError, InternalInconsistency
from .exactmath import IntPoly, UniPoly
from .joinsetup import ProductSetup


@dataclass(frozen=True)
class ExtremalProfile:
    """Solved profile data for one ray: parameter c, polynomial F, the
    affine weighted-scalar coefficients A1, A2, and the integer rows they are
    read from, which every verdict reads (out of equality and repr)."""

    c: Fraction
    F: UniPoly
    A1: Fraction
    A2: Fraction
    p: int
    rows: tuple = field(compare=False, repr=False)


def _right_side(p, a, s, x):
    """(L, L x, rows), L the lcm of the denominators of s0 = 2a+2sx, s1 = 2ax
    and x.  Row k = 0..p, (t0, t1, t2, b1, b2), holds the z^k coefficients
    t0 + t1 c + t2 c^2 of L (cz+1)^2 (s0 + s1 z), the ODE's source, and
    b1 P1 + b2 P2 of L (P1 z + P2)(1 + xz), its affine part; p >= 3."""
    s0, s1 = 2 * a + 2 * s * x, 2 * a * x
    L = lcm(s0.denominator, s1.denominator, x.denominator)
    Ls0, Ls1, Lx = ((L * v).numerator for v in (s0, s1, x))
    rows = [(Ls0, 0, 0, 0, L), (Ls1, 2 * Ls0, 0, L, Lx), (0, 2 * Ls1, Ls0, Lx, 0),
            (0, 0, Ls1, 0, 0)]
    return L, Lx, rows + [(0,) * 5] * (p - 3)


def _ode_map(L, right, D, P):
    """For ints or IntPolys D and P_0..P_p, and (L, right) from _right_side,
    the triples (e0, e1, e2), k = 0..p, with e0 + e1 c + e2 c^2 equal to L
    times the z^k coefficient of the ODE's left side at F = P less D times its
    source; plus b1 P1 + b2 P2, it is L times the z^k defect of the ODE."""
    p = len(right) - 1
    P = list(P) + [0] * (p + 3 - len(P))
    return [(L * (k + 2) * (k + 1) * P[k + 2] - D * t0,
             2 * L * (k + 1) * (k + 1 - p) * P[k + 1] - D * t1,
             L * (k - p) * (k - p + 1) * P[k] - D * t2)
            for k, (t0, t1, t2, _, _) in enumerate(right)]


def _certify(side, n, m, rows, what):
    """Raise InternalInconsistency unless rows = (D, P1, P2, P_0..P_p), ints
    at c = n/m or IntPolys with n = c and m = 1, meet the identities listed
    under ProfileTable, which are linear in the rows, times L (the ODE's also
    times m^2, as _ode_map gives it), for side = _right_side(p, a, s, x)."""
    L, Lx, right = side
    D, P1, P2, *P = rows
    for k, ((e0, e1, e2), row) in enumerate(zip(_ode_map(L, right, D, P), right)):
        if m * m * (e0 + row[3] * P1 + row[4] * P2) + n * m * e1 + n * n * e2:
            raise InternalInconsistency(f"{what} fails the ODE at z^{k}")
    for sign in (1, -1):
        value = sum(sign ** k * Pk for k, Pk in enumerate(P))
        slope = L * sum(sign ** (k + 1) * k * Pk for k, Pk in enumerate(P))
        if value or slope + 2 * sign * (L + sign * Lx) * D:
            raise InternalInconsistency(f"{what} fails an endpoint condition")


def _endpoint_solve(side, n, m):
    """The profile at c = n/m from its Taylor recursion, in integers.

    side is _right_side(p, a, s, x); n and m are ints for one ray, or n = c
    as an IntPoly and m = 1 for every ray of a setup.  The z^k coefficient of
    the ODE, for F = sum F_k z^k, is
        (k+2)(k+1) F_(k+2) = r_k - c^2 (k-p)(k-p+1) F_k - 2c (k+1)(k+1-p) F_(k+1)
    with r_k that of the right side.  With L from _right_side,
    H_k = m^k k! L F_k obeys, over Z,
        H_(k+2) = k! m^(k+2) L r_k(n/m) - (k-p)(k-p+1) n^2 H_k - 2(k+1-p) n H_(k+1),
    so each H_k is an integer linear form in (1, H_0, H_1, A1, A2).  As
    deg r <= 3 < p-1, the z^(p-1) and z^p equations read 0 = 0: deg F <= p.

    The endpoint conditions times p! m^p L are four integer equations
    W (1, H_0, H_1, A1, A2) = 0, with kernel v_i = (-1)^i det(W less column i).
    The five determinants share, by Laplace, the ten 2x2 minors of the value
    rows and the ten of the slope rows.  v_0 != 0 for |c| < 1 (module
    docstring).  With G_k = sum_i v_i H_(k,i), so F_k = G_k/(v_0 m^k k! L),
    the rows (D, P1, P2, P_k) = -(L w_0 v_0, L w_0 v_3, L w_0 v_4, w_k G_k),
    w_k = (p!/k!) m^(p-k), are one multiple of (1, A1, A2, F_k).
    """
    L, Lx, right = side
    p = len(right) - 1
    n2, m2 = n * n, m * m
    H = [(0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]
    for k, (t0, t1, t2, b1, b2) in enumerate(right[:p - 1]):
        # k! m^(k+2) L r_k(n/m) in the basis (1, H_0, H_1, A1, A2)
        f = factorial(k) * m ** k
        r = (f * (t0 * m2 + t1 * n * m + t2 * n2), 0, 0, -f * m2 * b1, -f * m2 * b2)
        u, w = (k - p) * (k - p + 1) * n2, 2 * (k + 1 - p) * n
        H.append(tuple(rk - u * hk - w * hk1 for rk, hk, hk1 in zip(r, H[k], H[k + 1])))
    # p! m^p L times F(1), F(-1), F'(1) and F'(-1), less their targets
    w = [factorial(p) // factorial(k) * m ** (p - k) for k in range(p + 1)]
    ends = [[sign ** k * wk for k, wk in enumerate(w)] for sign in (1, -1)]
    ends += [[sign * k * e for k, e in enumerate(end)] for sign, end in zip((1, -1), ends)]
    rows = [[sum(e * h[i] for e, h in zip(end, H)) for i in range(5)] for end in ends]
    rows[2][0] += 2 * (L + Lx) * w[0]
    rows[3][0] -= 2 * (L - Lx) * w[0]
    mv, ms = ({(i, j): t[i] * b[j] - t[j] * b[i] for i, j in combinations(range(5), 2)}
              for t, b in (rows[:2], rows[2:]))
    v = []
    for i in range(5):
        k1, k2, k3, k4 = (j for j in range(5) if j != i)
        det = (mv[k1, k2] * ms[k3, k4] - mv[k1, k3] * ms[k2, k4]
               + mv[k1, k4] * ms[k2, k3] + mv[k2, k3] * ms[k1, k4]
               - mv[k2, k4] * ms[k1, k3] + mv[k3, k4] * ms[k1, k2])
        v.append(-det if i % 2 else det)
    return ([-L * w[0] * v[i] for i in (0, 3, 4)]
            + [-wk * sum(hi * vi for hi, vi in zip(h, v)) for wk, h in zip(w, H)])


def _read(c, p, rows):
    """The ExtremalProfile at c of integer rows (D, P1, P2, P_0..P_p)."""
    D, P1, P2, *P = rows
    return ExtremalProfile(c=c, F=UniPoly(Fraction(Pk, D) for Pk in P),
                           A1=Fraction(P1, D), A2=Fraction(P2, D), p=p,
                           rows=tuple(rows))


def compute_profile(setup, c):
    """The profile of the ray at parameter c: the rows of _endpoint_solve,
    divided by their content, certified by _certify and read off by _read."""
    if not isinstance(setup, ProductSetup):
        raise DomainError("compute_profile needs a ProductSetup")
    c = Fraction(c)
    if abs(c) >= 1:
        raise DomainError(f"ray parameter must satisfy |c| < 1, got {c}")
    side = _right_side(setup.p, setup.a, setup.s, setup.x)
    rows = _endpoint_solve(side, c.numerator, c.denominator)
    content = gcd(*rows)
    rows = [row // content for row in rows]
    _certify(side, c.numerator, c.denominator, rows, f"profile at c={c}")
    return _read(c, setup.p, rows)


def solve_A(setup, c):
    """The affine coefficients (A1, A2) of compute_profile(setup, c).

    Kept only because perfbench/tracer.py times it; ROADMAP item 3 deletes it
    once item 1c keeps the metrics of a removed traced function numeric.
    """
    prof = compute_profile(setup, c)
    return prof.A1, prof.A2


class ProfileTable:
    """Every profile of one setup, as F(z; c) = P(z, c)/D(c) with (A1, A2) =
    (P1(c), P2(c))/D(c), certified on construction.

    The table is its integer rows (D, P1, P2, P_0..P_p), IntPolys in c, P_k
    the z^k coefficient of P(z, c).  The constructor checks, as identities in
    Z[c], the ODE times D, coefficient by coefficient (its z^k coefficient is
        c^2 (k-p)(k-p+1) P_k + 2c (k+1)(k+1-p) P_(k+1) + (k+2)(k+1) P_(k+2)
            = [D (cz+1)^2 (2a(1+xz) + 2sx) - (P1 z + P2)(1 + xz)]_k),
    P(+-1, c) = 0 and P_z(+-1, c) = -+2(1+-x) D; InternalInconsistency if not.

    These identities make the table exact at every |c| < 1: profile_table's
    D is a positive multiple of minus the endpoint determinant, nonzero there
    (module docstring), and divided by D(c) they are the ODE and the endpoint
    conditions for F = P(., c)/D(c) with (A1, A2) = (P1, P2)/D, which fix F
    uniquely.  D, P1, P2 and P are UniPolys built on demand, the rows times
    scale (the tests pin profile_table's D to (1-c^2)^(2p-2) times minus the
    determinant of the Gram matrix of the module docstring).  A ray c = n/m
    costs one dot product with n^j m^(N-j) per row, N the largest degree
    (_rows_at), and _read.
    """

    def __init__(self, setup, rows, scale=1):
        self.setup = setup
        self._rows = tuple(rows)
        self._scale = Fraction(scale)
        self._degree = max(row.degree for row in self._rows)
        _certify(_right_side(setup.p, setup.a, setup.s, setup.x), IntPoly((0, 1)), 1,
                 self._rows, f"profile table for p={setup.p}")

    def _field(self, i):
        return UniPoly(self._scale * v for v in self._rows[i].coeffs)

    D = property(lambda self: self._field(0))
    P1 = property(lambda self: self._field(1))
    P2 = property(lambda self: self._field(2))
    P = property(lambda self: tuple(map(self._field, range(3, len(self._rows)))))

    def _rows_at(self, c):
        """The rows (D, P1, P2, P_0..P_p) at the ray c = n/m, a Fraction in
        lowest terms, times m^N: ints with F = P/D and (A1, A2) = (P1, P2)/D."""
        if abs(c) >= 1:
            raise DomainError(f"ray parameter must satisfy |c| < 1, got {c}")
        n, m, N = c.numerator, c.denominator, self._degree
        weights = [n ** j * m ** (N - j) for j in range(N + 1)]
        return [sum(v * w for v, w in zip(row.coeffs, weights)) for row in self._rows]

    def profile_at(self, c):
        """The profile of the ray at parameter c, read off the table."""
        c = Fraction(c)
        return _read(c, self.setup.p, self._rows_at(c))


def profile_table(setup):
    """The certified ProfileTable of a setup.

    _endpoint_solve runs once over Z[c], with n = c and m = 1.  In the Taylor
    basis (F_0, F_1, A1, A2), with the endpoint conditions unscaled, the 4x4
    determinant is -D, the Cramer numerators of A1 and A2 are -P1 and -P2,
    and P_k = D F_k.  Its rows are D, P1, P2 and P times (p!)^5 L^3; divided
    by their content, the table's scale is content / ((p!)^5 L^3).  No degree
    bound is assumed.
    """
    if not isinstance(setup, ProductSetup):
        raise DomainError("profile_table needs a ProductSetup")
    side = _right_side(setup.p, setup.a, setup.s, setup.x)
    rows = _endpoint_solve(side, IntPoly((0, 1)), 1)
    content = gcd(*(v for row in rows for v in row.coeffs))
    return ProfileTable(setup, [IntPoly(v // content for v in row.coeffs) for row in rows],
                        Fraction(content, factorial(setup.p) ** 5 * side[0] ** 3))


def cscS_check(profile):
    """True iff the ray at this profile has constant scalar curvature."""
    return profile.A1 - profile.c * profile.A2 == 0
