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
G = H = 0.  A kernel vector (F_0, F_1/p, A1, A2) of the endpoint system of
_endpoint_solve is such an H, so that system is nonsingular for |c| < 1.

The z^k coefficient of the ODE is written once, over Z: _right_side holds
the right side and _ode_map the left.  A profile is one set of integer rows
(D, P1, P2, P_0..P_p), F = P/D and (A1, A2) = (P1, P2)/D, which
_endpoint_solve derives in the binomial basis F_k = C(p, k) E_k, where the
ODE is a second difference in E.  Every set of rows this module gives out
has D > 0 on (-1, 1) (_content), so no other module reads the sign of D.
compute_profile runs the solve at one ray c = n/m; profile_table runs it at
the one integer point c = 2^B, B proven large enough by the same solve run
on 1-norm majorants (_Norm), and reads each row's value back as its
coefficients over Z[c], with no polynomial product.  _certify checks rows
exactly through the same map, also for the p = 4 closed form of
twins.cp1_profile.  Every verdict reads a ray's rows, not F: rows_F,
rows_cscS and conescan.rows_extremal are the one reading of F, of the cscS
verdict and of the extremal verdict, for a profile and for a ray a scan
probes, which builds no profile; the twin equations (twins) read the rows
too.  Moments enter this module only through the proof above; the cleared
moments behind the cscS numerator are in cscs.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul

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


class _Norm:
    """A majorant of the 1-norm nu(f), the sum of the absolute values of the
    coefficients, of an integer polynomial f in c.  As nu(f + g) and
    nu(f - g) are at most nu(f) + nu(g), nu(f g) <= nu(f) nu(g) and
    nu(k) = |k| for an int k, ring arithmetic run on _Norms, ints mixed in,
    gives a majorant of the 1-norm of every result: _Norm(1) stands for c."""

    __slots__ = ("bound",)

    def __init__(self, bound):
        self.bound = bound

    def __abs__(self):
        return self.bound

    def __add__(self, other):
        return _Norm(self.bound + abs(other))

    def __mul__(self, other):
        return _Norm(self.bound * abs(other))

    def __neg__(self):
        return self

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__


def _defects(side, n, m, rows):
    """The defects of rows = (D, P1, P2, P_0..P_p), ints at c = n/m or
    polynomials in c with n = c and m = 1, in the identities listed under
    ProfileTable, as (which identity, value) pairs.  They are linear in the
    rows, times L (the ODE's also times m^2, as _ode_map gives it), for
    side = _right_side(p, a, s, x); the rows meet the identities iff every
    value is 0."""
    L, Lx, right = side
    D, P1, P2, *P = rows
    out = [(f"the ODE at z^{k}",
            m * m * (e0 + row[3] * P1 + row[4] * P2) + n * m * e1 + n * n * e2)
           for k, ((e0, e1, e2), row) in enumerate(zip(_ode_map(L, right, D, P), right))]
    for sign in (1, -1):
        value = sum(sign ** k * Pk for k, Pk in enumerate(P))
        slope = L * sum(sign ** (k + 1) * k * Pk for k, Pk in enumerate(P))
        out += [("an endpoint condition", value),
                ("an endpoint condition", slope + 2 * sign * (L + sign * Lx) * D)]
    return out


def _certify(side, n, m, rows, what):
    """Raise InternalInconsistency unless every defect of _defects(side, n, m,
    rows) is 0."""
    for which, value in _defects(side, n, m, rows):
        if value:
            raise InternalInconsistency(f"{what} fails {which}")


def _clearing(p):
    """(K, Q): K_k = p!/(k!(p-k-2)!) = p(p-1) C(p-2, k) for k = 0..3, the
    weights of the ODE's z^k coefficient in the binomial basis, and Q their
    lcm."""
    K = [p * (p - 1) * comb(p - 2, k) for k in range(4)]
    return K, lcm(*K)


def _endpoint_solve(side, n, m):
    """The profile's rows at c = n/m from its recursion in the binomial
    basis, in integers.

    side is _right_side(p, a, s, x); n and m are ints for one ray, or n is c
    (an IntPoly, an int point of c, or _Norm(1)) and m = 1.  The z^k
    coefficient of the ODE, for F = sum F_k z^k, is
        (k+2)(k+1) F_(k+2) + 2c (k+1)(k+1-p) F_(k+1) + c^2 (k-p)(k-p+1) F_k = r_k
    with r_k that of the right side, 0 for k >= 4.  Write F_k = C(p, k) E_k.
    With K_k = p!/(k!(p-k-2)!), the three coefficients are
        C(p, k+2) (k+2)(k+1) = K_k,  C(p, k+1) (k+1)(k+1-p) = -K_k,
        C(p, k) (k-p)(k-p+1) = K_k,
    so the equation is the second difference
        E_(k+2) = 2c E_(k+1) - c^2 E_k + r_k/K_k,  k = 0..p-2.
    With L from _right_side and Q = lcm(K_0..K_3) (_clearing),
    H_k = m^k L Q E_k obeys, over Z,
        H_(k+2) = 2n H_(k+1) - n^2 H_k + (Q/K_k) m^(k+2) L r_k(n/m),
    so each H_k is an integer linear form in (1, H_0, H_1, A1, A2), one
    recursion per coordinate.  As deg r <= 3 < p-1, the z^(p-1) and z^p
    equations read 0 = 0: deg F <= p.

    The endpoint conditions times m^p L Q are four integer equations
    W (1, H_0, H_1, A1, A2) = 0, with kernel v_i = (-1)^i det(W less column i).
    The five determinants share, by Laplace, the ten 2x2 minors of the value
    rows and the ten of the slope rows.  v_0 != 0 for |c| < 1 (module
    docstring).  G_k = sum_i v_i H_(k,i) is the same recursion run once on
    v, from (G_0, G_1) = (v_1, v_2), and F_k = C(p, k) G_k/(v_0 m^k L Q).  So
    the rows (D, P1, P2, P_k) = -(L Q w_0 v_0, L Q w_0 v_3, L Q w_0 v_4,
    w_k G_k), w_k = C(p, k) m^(p-k), are one multiple of (1, A1, A2, F_k).
    The Taylor basis (H_k = m^k k! L F_k, conditions times p! m^p L) gives
    the same rows times a positive rational: both are v_0 times a positive
    int times (1, A1, A2, F_k), and the two v_0 differ by a positive factor,
    as the two W differ by positive scalings of the rows and of the H_0 and
    H_1 columns.  So their primitive parts, signs included, agree.

    Affinity in (a, s) (F22).  a and s enter only the source t of
    _right_side, through s0 and s1, which are linear in them; L scales t, b
    and the targets alike, so it cancels from the profile: take L = 1.  Then
    only W's column 0, the source's recursion plus the targets, involves
    (a, s), and affinely.  So v_0 is free of (a, s), each other v_i, linear
    in column 0, is affine in them, and so is G, run from (v_1, v_2) on the
    sources v_0 (1-part) + v_3 (A1-part) + v_4 (A2-part); the rows are these
    times factors in p and m.  So for fixed (p, x), at a common scale free
    of (a, s) (the tests take the moments'), every table's D is one
    polynomial in c, and P1, P2 and each P_k are affine in (a, s),
    coefficient by coefficient.

    Majorant.  Every step is a ring operation with int constants, so the
    run on n = _Norm(1), m = 1 gives, for each row, a majorant of the 1-norm
    of that row over Z[c], and so of each of its coefficients.
    """
    L, Lx, right = side
    p = len(right) - 1
    K, Q = _clearing(p)
    n2, m2, twice_n = n * n, m * m, 2 * n
    # (Q/K_k) m^(k+2) L r_k(n/m), k = 0..3, as its parts along 1, A1 and A2
    sources = []
    for k, (t0, t1, t2, b1, b2) in enumerate(right[:4]):
        f = Q // K[k] * m ** k
        sources.append((f * (t0 * m2 + t1 * n * m + t2 * n2), -f * m2 * b1, -f * m2 * b2))

    def recursion(first, second, source=()):
        E = [first, second]
        for k in range(p - 1):
            step = twice_n * E[k + 1] - n2 * E[k]
            E.append(step + source[k] if k < len(source) else step)
        return E

    const, a1, a2 = zip(*sources)
    H = [recursion(0, 0, const), recursion(1, 0), recursion(0, 1),
         recursion(0, 0, a1), recursion(0, 0, a2)]
    # m^p L Q times F(1), F(-1), F'(1) and F'(-1), less their targets, from
    # the even and odd parts of sum w_k H_k and of sum k w_k H_k
    w = [comb(p, k) * m ** (p - k) for k in range(p + 1)]
    kw = [k * wk for k, wk in enumerate(w)]
    rows = [[], [], [], []]
    for column in H:
        e, o, ek, ok = (sum(u * h for u, h in zip(weights[parity::2], column[parity::2]))
                        for weights in (w, kw) for parity in (0, 1))
        for row, value in zip(rows, (e + o, e - o, ek + ok, ok - ek)):
            row.append(value)
    rows[2][0] += 2 * (L + Lx) * Q * w[0]
    rows[3][0] -= 2 * (L - Lx) * Q * w[0]
    mv, ms = ({(i, j): t[i] * b[j] - t[j] * b[i] for i, j in combinations(range(5), 2)}
              for t, b in (rows[:2], rows[2:]))
    v = []
    for i in range(5):
        k1, k2, k3, k4 = (j for j in range(5) if j != i)
        det = (mv[k1, k2] * ms[k3, k4] - mv[k1, k3] * ms[k2, k4]
               + mv[k1, k4] * ms[k2, k3] + mv[k2, k3] * ms[k1, k4]
               - mv[k2, k4] * ms[k1, k3] + mv[k3, k4] * ms[k1, k2])
        v.append(-det if i % 2 else det)
    G = recursion(v[1], v[2], [v[0] * s0 + v[3] * s1 + v[4] * s2 for s0, s1, s2 in sources])
    return [-L * Q * w[0] * v[i] for i in (0, 3, 4)] + [-wk * gk for wk, gk in zip(w, G)]


def _content(D0, values):
    """The gcd of values signed like D0, D at one ray: D, like the endpoint
    determinant, has no root in (-1, 1), so the rows over it have D > 0."""
    g = gcd(*values)
    return g if D0 > 0 else -g


def rows_F(rows):
    """F = P/D of a ray's integer rows (D, P1, P2, P_0..P_p), at any common
    scale: one Fraction per coefficient."""
    D = rows[0]
    return UniPoly([Fraction(Pk, D) for Pk in rows[3:]])


def rows_cscS(c, rows):
    """The cscS verdict A1 == c A2 of a ray's integer rows (D, P1, P2, ...)
    at c = n/m, at any common nonzero scale: with D cleared it reads
    m P1 == n P2, in ints."""
    return c.denominator * rows[1] == c.numerator * rows[2]


def _read(c, rows):
    """The ExtremalProfile at c of integer rows (D, P1, P2, P_0..P_p)."""
    D, P1, P2 = rows[:3]
    return ExtremalProfile(c=c, F=rows_F(rows), A1=Fraction(P1, D), A2=Fraction(P2, D),
                           rows=tuple(rows))


def compute_profile(setup, c):
    """The profile of the ray at parameter c: the rows of _endpoint_solve,
    over _content, certified by _certify and read off by _read."""
    if not isinstance(setup, ProductSetup):
        raise DomainError("compute_profile needs a ProductSetup")
    c = Fraction(c)
    if abs(c) >= 1:
        raise DomainError(f"ray parameter must satisfy |c| < 1, got {c}")
    side = _right_side(setup.p, setup.a, setup.s, setup.x)
    rows = _endpoint_solve(side, c.numerator, c.denominator)
    content = _content(rows[0], rows)
    rows = [row // content for row in rows]
    _certify(side, c.numerator, c.denominator, rows, f"profile at c={c}")
    return _read(c, rows)


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

    It checks them at one integer point.  An integer polynomial E with
    nu(E) < X/2 (nu the 1-norm of _Norm) and E(X) = 0 is zero: its
    coefficients are then its balanced base-X digits, which are unique, and
    those of 0 are all 0.  Each defect of _defects is a polynomial in c, and
    the run of _defects on the rows' 1-norms with c = _Norm(1) gives a
    majorant M of every defect's 1-norm; so with X = 2^B > 2M, the defects
    at c = X, read off the rows at X (IntPoly.pack), are all 0 iff the
    identities hold.

    These identities make the table exact at every |c| < 1: profile_table's
    D is a nonzero multiple of the endpoint determinant, so D(c) != 0 there
    (module docstring), and divided by D(c) they are the ODE and the endpoint
    conditions for F = P(., c)/D(c) with (A1, A2) = (P1, P2)/D, which fix F
    uniquely.  A ray c = n/m costs one dot product with n^j m^(N-j) per
    row, N the largest degree (rows_at), and every verdict on it reads those
    ints.
    """

    def __init__(self, setup, rows):
        self.setup = setup
        self.rows = tuple(rows)
        self._degree = max(row.degree for row in self.rows)
        side = _right_side(setup.p, setup.a, setup.s, setup.x)
        norms = [_Norm(sum(map(abs, row.coeffs))) for row in self.rows]
        bound = max(abs(value) for _, value in _defects(side, _Norm(1), 1, norms))
        bits = bound.bit_length() + 1
        _certify(side, 1 << bits, 1, [row.pack(bits) for row in self.rows],
                 f"profile table for p={setup.p}")

    def rows_at(self, c):
        """The table's rows (D, P1, P2, P_0..P_p) at the ray c = n/m in lowest
        terms, times m^N: ints with F = P/D and (A1, A2) = (P1, P2)/D, and
        D > 0, which every verdict on the ray reads."""
        n, m, N = c.numerator, c.denominator, self._degree
        if abs(n) >= m:
            raise DomainError(f"ray parameter must satisfy |c| < 1, got {c}")
        weights = [n ** j * m ** (N - j) for j in range(N + 1)]
        return [sum(map(mul, row.coeffs, weights)) for row in self.rows]


def profile_table(setup):
    """The certified ProfileTable of a setup.

    _endpoint_solve runs twice, with m = 1: on n = _Norm(1), which bounds
    every coefficient of its rows over Z[c] by M, and at the one integer
    point n = 2^B, B = bitlength(M) + 1.  Each row's value there is read
    back as balanced base-2^B digits (IntPoly.unpack), which are its
    coefficients as they lie below 2^(B-1) in absolute value.  The rows are
    divided by their content, signed by _content at c = 0.  No degree bound
    is assumed.
    """
    if not isinstance(setup, ProductSetup):
        raise DomainError("profile_table needs a ProductSetup")
    side = _right_side(setup.p, setup.a, setup.s, setup.x)
    bits = max(map(abs, _endpoint_solve(side, _Norm(1), 1))).bit_length() + 1
    rows = [IntPoly.unpack(value, bits) for value in _endpoint_solve(side, 1 << bits, 1)]
    content = _content(rows[0].coeffs[0], [v for row in rows for v in row.coeffs])
    return ProfileTable(setup, [IntPoly(v // content for v in row.coeffs) for row in rows])


def cscS_check(profile):
    """True iff the ray at this profile has constant scalar curvature,
    A1 == c A2, read off its integer rows by rows_cscS."""
    return rows_cscS(profile.c, profile.rows)
