"""Certified real-root machinery: Sturm counting, isolation, identification.

Everything here is exact.  isolate_roots is the one path from a polynomial to
its certified roots: it divides out roots at the interval ends, brackets each
remaining root strictly inside the open interval by a RootInterval certified
by a Sturm count of 1 over the bracket, and pins the root to a rational value
that exact evaluation confirms, or proves it irrational by the rational root
theorem.  _refine, quadratic interval refinement onto bisection's bracket, is
the one refinement of a one-root bracket, for isolation and identification.

A polynomial argument is a UniPoly or an IntPoly, and the work is on an
IntPoly, the primitive integer multiple of a UniPoly: the one Sturm sequence is
IntPoly.remainder_sequence over Z, isolate_roots reads the squarefree part off
its last term, and every sign is read by homogeneous integer evaluation
(sturm_count_roots has the proof that the counts are Sturm's).
"""

from dataclasses import dataclass
from fractions import Fraction
import math
from typing import Optional

from ..errors import DomainError, ZeroPolynomial
from .intpoly import IntPoly


@dataclass(frozen=True)
class RootInterval:
    """Open interval (lo, hi) certified to contain exactly one root by a
    Sturm count of 1.  exact_value is the root when it is rational; on an
    interval from isolate_roots, None proves the root irrational.
    """

    lo: Fraction
    hi: Fraction
    exact_value: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.exact_value is not None:
            object.__setattr__(self, "exact_value", Fraction(self.exact_value))

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return (self.lo + self.hi) / 2


def _sturm_chain(p):
    return p.remainder_sequence(p.derivative())


def _variations(chain, n, m=None):
    signs = [v > 0 for v in (q.homogeneous(n, m) for q in chain) if v]
    return sum(1 for s, u in zip(signs, signs[1:]) if s != u)


def _strip_endpoint_roots(p, lo, hi):
    """Divide out roots sitting exactly at lo or hi.

    A root n/m of the integer polynomial p is divided out as the primitive
    factor m z - n, so the quotient stays in Z[z] (Gauss's lemma) and is a
    positive multiple of p / (z - n/m).
    """
    for end in (lo, hi):
        while p and p.homogeneous(end) == 0:
            p = p.exact_div(IntPoly((-end.numerator, end.denominator)))
    return p


def _as_intpoly(p):
    return p if isinstance(p, IntPoly) else IntPoly.from_unipoly(p)


def _prepare(p, lo, hi, task):
    """(lo, hi, w, w's Sturm chain), w being p as an IntPoly less its roots at lo, hi."""
    if not p:
        raise ZeroPolynomial(f"{task} needs a nonzero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got {lo}, {hi}")
    w = _strip_endpoint_roots(_as_intpoly(p), lo, hi)
    return lo, hi, w, _sturm_chain(w)


def sturm_count_roots(p, lo, hi):
    """Number of distinct real roots of p in the open interval (lo, hi).

    One Sturm sequence is built on w, p as an IntPoly (a UniPoly's primitive
    integer multiple) less its roots at lo and hi.  w need not be squarefree:
    every element of the sequence is a multiple of g = gcd(w, w'), and g does
    not vanish where w does not, so at such a point the sign variations are
    those of the sequence divided by g.  lo and hi are such points, so the
    variation count is the number of distinct roots (Sturm's theorem in its
    general form).

    The sequence is IntPoly.remainder_sequence(w, w') over Z, whose terms
    are positive multiples of the classical ones over Q, so every variation
    count is the classical one; the signs are read by homogeneous evaluation,
    in integers.  A constant w has the sequence [w] and no variations.
    """
    lo, hi, _, chain = _prepare(p, lo, hi, "root counting")
    return _variations(chain, lo) - _variations(chain, hi)


def is_positive_on_open(p, lo, hi):
    """True iff p > 0 everywhere on the open interval (lo, hi).

    p is a UniPoly or an IntPoly.  A UniPoly is converted once, by a positive
    factor, and the Sturm count and the sign at the midpoint are both read on
    the integer polynomial.
    """
    if not p:
        raise ZeroPolynomial("positivity needs a nonzero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    p = _as_intpoly(p)
    if sturm_count_roots(p, lo, hi) != 0:
        return False
    return p.homogeneous((lo + hi) / 2) > 0


def _refine(sf, a, b, d, fa, fb, width, ends=None):
    """Bisection's bracket of the simple root of sf in (a/d, b/d), at most
    width wide and, given ends = (a0, b0, d0), ending at neither lo = a0/d0
    nor hi = b0/d0, as (a, b, d); fa and fb are sf at a/d and b/d scaled by
    d^deg sf.  Without ends, a root met at a point r/d returns as (r, r, d).

    With ends, a midpoint that is the root moves the split to a + 3(b-a)/7
    (isolate_roots' nudge) while the bracket is wider than width, and past it
    gives a bracket around the root, off it by a quarter of the least of its
    distances to lo and hi and the bracket's width.  Sides are read off the
    tightest points p < root < q where sf is known (fp, fq), evaluating only
    a point strictly between them, which then becomes p or q; a <= p and
    q <= b (the nudge point is evaluated).

    Quadratic interval refinement (Abbott, ISSAC 2006) guesses that of the 2^e
    equal parts of the bracket the one holding the zero of the secant through
    p and q holds the root (at e = 2 after reading the midpoint, so that only
    bisection's points are read), and confirms it by the sides of its ends.  A
    confirmed part i is e steps of bisection: each midpoint of the first e
    halvings is a point of the grid (a 2^e + j (b-a))/(d 2^e), not strictly
    inside the part and so not the root, and its side keeps the half holding
    the part, which after l <= e halvings is part i >> (e-l) of 2^l.  Wider
    than width, e is capped at the halvings after which the width test
    passes; past the width, bisection stops at the first level l whose part
    leaves the ends: part i >> (e-l) starts at lo iff the bracket does and
    that index is 0, and ends at hi iff the bracket does and (2^e-1-i) >>
    (e-l) is 0, so l = e - k with k + 1 the bit length of t, the least of i
    (at lo) and 2^e-1-i (at hi), and t = 0 keeps the whole part.  A confirmed
    guess doubles e; otherwise one bisection step is taken and e halves, down
    to 1 (plain bisection, after which e is 2 again), and the denominator
    goes back to the least that holds p and q.
    """
    n, wn, wd = sf.degree, width.numerator, width.denominator
    p, q, fp, fq, left = a, b, fa, fb, fa > 0

    def side(t):
        # True when t/d lies left of the root, False right of it, None at it
        nonlocal p, q, fp, fq
        if p < t < q:
            v = sf.homogeneous(t, d)
            if v and (v > 0) == left:
                p, fp = t, v
            elif v:
                q, fq = t, v
        return None if p < t < q else t <= p

    # without ends, d0 = 0 puts lo and hi where no bracket ends
    a0, b0, d0 = ends or (1, 1, 0)
    at_lo = at_hi = False
    e = 2
    while True:
        x, y = (b - a) * wd, wn * d
        if x <= y:
            at_lo, at_hi = a * d0 == a0 * d, b * d0 == b0 * d
            if not (at_lo or at_hi):
                return a, b, d
        else:
            # guess no deeper than the least j with x <= y 2^j
            j = x.bit_length() - y.bit_length()
            e = min(e, j + (y << j < x))
        if e > 1:
            # over d 2^e, part i of the bracket is (a + i span, a + (i+1) span)
            span = b - a
            a, b, p, q, d = a << e, b << e, p << e, q << e, d << e
            fp, fq = fp << e * n, fq << e * n
            i = (p - a + (q - p) * fp // (fp - fq)) // span
            m = a + i * span
            if e == 2 and side(a + 2 * span) is None and not ends:
                return a + 2 * span, a + 2 * span, d
            at_m = side(m)
            at_r = side(m + span) if at_m else None
            if at_m and at_r is False:
                t = min(i if at_lo else 1 << e, (1 << e) - 1 - i if at_hi else 1 << e)
                k = max(t.bit_length() - 1, 0) if x <= y else 0
                a, b, e = a + (i >> k << k) * span, a + ((i >> k) + 1 << k) * span, 2 * e
                continue
            if not ends and (at_m is None or at_m and at_r is None):
                m += span * bool(at_m)
                return m, m, d
            z = ((p | q | 1 << e) & -(p | q | 1 << e)).bit_length() - 1
            a, b, p, q, d, fp, fq = a >> z, b >> z, p >> z, q >> z, d >> z, fp >> z * n, fq >> z * n
        e = e // 2 or 2
        m, a, b, p, q, d, fp, fq = a + b, 2 * a, 2 * b, 2 * p, 2 * q, 2 * d, fp << n, fq << n
        at_m = side(m)
        if at_m is None:
            if not ends:
                return m, m, d
            if x <= y:
                off = min(m * d0 - a0 * d, b0 * d - m * d0, (b - a) * d0)
                return 4 * m * d0 - off, 4 * m * d0 + off, 4 * d * d0
            a, b, p, q, d = 7 * a + 3 * (b - a), 7 * b, 7 * p, 7 * q, 7 * d
            fp, fq = fp * 7 ** n, fq * 7 ** n
            side(a)
        else:
            a, b = (m, b) if at_m else (a, m)


def isolate_roots(p, lo, hi, width):
    """Every root of p in the open interval (lo, hi), isolated and identified.

    Each RootInterval holds exactly one root of p that is not lo or hi,
    certified by a Sturm count of 1; it is at most width wide and lies
    strictly inside (lo, hi), so both its ends are points of the open
    interval.  exact_value holds the root when it is rational, and None
    proves it irrational.  Returned in increasing order.

    One Sturm sequence is built, on w, p as an IntPoly less its roots at lo
    and hi, as in sturm_count_roots: its variation counts are numbers of
    distinct roots even when w has repeated factors.  Its last term is a
    multiple of gcd(w, w'), so w divided exactly by that term's primitive part
    (w itself when the term is a constant) is sf, the squarefree part of w up
    to a nonzero factor, which changes sign across each of its roots.  The
    factor may be negative, since the last term's sign is not fixed, but every
    sign test here (the split, _refine, identify_rational_root) compares two
    signs of sf, so the result does not depend on it.

    Each bracket is (a/d, b/d), integer numerators over a denominator d > 0;
    signs and Sturm variations are read at n/m unreduced, since m^deg q(n/m)
    has the sign of q(n/m) for m > 0 (IntPoly.homogeneous).  A bracket with
    more than one root is split at its midpoint, or nudged off a root of sf
    to the offsets k/(2k+1); one with a single root goes to _refine with lo
    and hi as its ends.
    """
    width = Fraction(width)
    if width <= 0:
        raise DomainError("width must be positive")
    lo, hi, w, chain = _prepare(p, lo, hi, "isolation")
    g = chain[-1]
    # a primitive divisor of w over Q divides it over Z (Gauss's lemma)
    sf = w.exact_div(g.primitive()) if g.degree >= 1 else w
    n = sf.degree
    # lo = a0/d0 and hi = b0/d0; every bracket below is (a/d, b/d), d > 0
    ends = a0, b0, d0 = (lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                         lo.denominator * hi.denominator)
    out = []
    # (a, b, d, Sturm variations and sf scaled by d^deg sf at a/d and b/d);
    # the right half waits on the stack, so roots come out in order
    stack = [(a0, b0, d0, _variations(chain, a0, d0), _variations(chain, b0, d0),
              sf.homogeneous(a0, d0), sf.homogeneous(b0, d0))]
    while stack:
        a, b, d, va, vb, fa, fb = stack.pop()
        while va - vb > 1:
            # split at a + (b-a) t/u: the midpoint, or nudged off a root of sf
            # to the offsets k/(2k+1), which are all distinct
            t, u, k = 1, 2, 3
            fm = sf.homogeneous(a + b, 2 * d)
            while fm == 0:
                t, u, k = k, 2 * k + 1, k + 1
                fm = sf.homogeneous(a * u + (b - a) * t, d * u)
            a, b, d, m = a * u, b * u, d * u, a * u + (b - a) * t
            # the kept end values move to the denominator d u
            fa, fb = fa * u ** n, fb * u ** n
            vm = _variations(chain, m, d)
            stack.append((m, b, d, vm, vb, fm, fb))
            b, vb, fb = m, vm, fm
        if va - vb == 1:
            a, b, d = _refine(sf, a, b, d, fa, fb, width, ends)
            a, b = Fraction(a, d), Fraction(b, d)
            out.append(RootInterval(a, b, identify_rational_root(sf, a, b)))
    return out


def simplest_rational_in(lo, hi):
    """The rational with the smallest denominator in the closed interval [lo, hi].

    Only its own recursion calls it; it stays only because perfbench/tracer.py
    times it, until ROADMAP item 3 deletes it after item 1c.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_in(-hi, -lo)
    ceil_lo = math.ceil(lo)
    if ceil_lo <= math.floor(hi):
        return Fraction(ceil_lo)
    n = math.floor(lo)
    frac = simplest_rational_in(1 / (hi - n), 1 / (lo - n))
    return n + 1 / frac


def identify_rational_root(p, lo, hi):
    """Pin the unique simple root of p in (lo, hi) to an exact rational.

    p is converted once to an IntPoly, whose homogeneous values give every
    sign and zero.  Requires a sign change across the bracket.  By the
    rational root theorem every rational root of p is j/l with j an integer
    and l the leading coefficient of p's primitive integer multiple, up to
    sign.  _refine narrows the bracket to width at most 1/l, or meets the
    root, and one candidate j/l is left to test, so None proves the root
    irrational.
    """
    p, lo, hi = _as_intpoly(p), Fraction(lo), Fraction(hi)
    d = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    fa, fb = p.homogeneous(a, d), p.homogeneous(b, d)
    if fa == 0 or fb == 0:
        return lo if fa == 0 else hi
    if (fa > 0) == (fb > 0):
        return None
    grid = abs(p.coeffs[-1]) // math.gcd(*p.coeffs)
    a, b, d = _refine(p, a, b, d, fa, fb, Fraction(1, grid))
    if a == b:
        return Fraction(a, d)
    j = a * grid // d + 1
    if j * d < b * grid and p.homogeneous(j, grid) == 0:
        return Fraction(j, grid)
    return None
