"""Certified real-root machinery: Sturm counting, isolation, identification.

Everything here is exact.  isolate_roots is the one path from a polynomial to
its certified roots: it divides out roots at the interval ends, brackets each
remaining root strictly inside the open interval by a RootInterval certified
"exact" (a Sturm count over the bracket equals 1), refines a bracket holding
one root to the requested width by quadratic interval refinement, which lands
on the bracket bisection reaches, and pins the root to a rational value that
exact evaluation confirms, or proves it irrational by the rational root
theorem.

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
    """Open interval (lo, hi) certified to contain exactly one root.

    multiplicity_note records the certificate, "exact": a Sturm count of 1.
    exact_value is the root when it is rational; on an interval from
    isolate_roots, None proves the root irrational.
    """

    lo: Fraction
    hi: Fraction
    multiplicity_note: str
    exact_value: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.multiplicity_note != "exact":
            raise DomainError(f"unknown certificate {self.multiplicity_note!r}")
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


def isolate_roots(p, lo, hi, width):
    """Every root of p in the open interval (lo, hi), isolated and identified.

    Each RootInterval holds exactly one root of p that is not lo or hi,
    certified by a Sturm count of 1 (multiplicity_note "exact"); it is at most
    width wide and lies strictly inside (lo, hi), so both its ends are points
    of the open interval.  exact_value holds the root when it is rational, and
    None proves it irrational.  Returned in increasing order.

    One Sturm sequence is built, on w, p as an IntPoly less its roots at lo
    and hi, as in sturm_count_roots: its variation counts are numbers of
    distinct roots even when w has repeated factors.  Its last term is a
    multiple of gcd(w, w'), so w divided exactly by that term's primitive part
    (w itself when the term is a constant) is sf, the squarefree part of w up
    to a nonzero factor, which changes sign across each of its roots.  The
    factor may be negative, since the last term's sign is not fixed, but every
    sign test here (bisection, the nudge off a root, the refinement's check,
    identify_rational_root) compares two signs of sf, so the result does not
    depend on it.

    The brackets are those of bisection: a bracket with more than one root is
    split at its midpoint, or nudged off a root of sf to the offsets k/(2k+1),
    and a bracket with one root is halved to the side where sf changes sign
    until it is at most width wide.  The bisection runs on integers.  Each
    bracket is (a/d, b/d), two integer numerators over one shared denominator
    d > 0: a split point a + (b-a) t/u is (a u + (b-a) t)/(d u), and the
    bracket moves to the denominator d u.  Signs and Sturm variations are read
    at n/m without reducing it, since m^deg q(n/m) has the sign of q(n/m) for
    every m > 0 (IntPoly.homogeneous).  The width test and the comparisons
    with lo and hi are cross-multiplied, and Fractions are built only for the
    returned ends.

    A one-root bracket reaches its width by quadratic interval refinement
    (Abbott, "Quadratic interval refinement for real roots", ISSAC 2006),
    which lands on the bracket bisection reaches in fewer evaluations.  sf
    is nonzero at both ends of the bracket (lo and hi are no roots of w, and
    every split point is off the roots of sf) and has one simple root inside,
    so fa and fb, its values at a/d and b/d both scaled by d^deg sf, have
    opposite signs, and the secant through them meets zero at the fraction
    fa/(fa-fb) of the bracket, strictly between 0 and 1.  The bracket is cut
    into 2^e equal parts, and part i = floor(2^e fa/(fa-fb)), in [0, 2^e-1],
    is guessed to hold the root.  The guess is confirmed when sf is nonzero
    at both ends of the part with the signs of fa and fb; then the root lies
    strictly inside the part.  A confirmed part is exactly e steps of
    bisection: each midpoint of the first e halvings is a point of the grid
    (a 2^e + j (b-a))/(d 2^e), so it is not strictly inside the part and not
    the root, no nudge fires, and the sign of sf there keeps the half that
    holds the root and so the part; after e halvings the bracket is the
    part, with the same numerators.  e is capped at the number of halvings
    after which the width test passes, so bisection would not stop inside
    the jump.  A confirmed guess doubles e; otherwise one bisection step is
    taken and e halves, down to 1, where the step is plain bisection and e
    goes back to 2.
    """
    lo, hi, w, chain = _prepare(p, lo, hi, "isolation")
    width = Fraction(width)
    if width <= 0:
        raise DomainError("width must be positive")
    g = chain[-1]
    # a primitive divisor of w over Q divides it over Z (Gauss's lemma)
    sf = w.exact_div(g.primitive()) if g.degree >= 1 else w
    n = sf.degree
    # lo = a0/d0 and hi = b0/d0; every bracket below is (a/d, b/d), d > 0
    d0 = math.lcm(lo.denominator, hi.denominator)
    a0, b0 = lo.numerator * (d0 // lo.denominator), hi.numerator * (d0 // hi.denominator)
    wn, wd = width.numerator, width.denominator
    out = []
    # (a, b, d, Sturm variations at a/d and b/d, sf at a/d and b/d scaled by
    # d^n); the left half is refined first and the right one waits on the
    # stack, so roots come out in order
    stack = [(a0, b0, d0, _variations(chain, a0, d0), _variations(chain, b0, d0),
              sf.homogeneous(a0, d0), sf.homogeneous(b0, d0))]
    while stack:
        a, b, d, va, vb, fa, fb = stack.pop()
        e = 2
        while va - vb > 1 or (va - vb == 1 and (b - a) * wd > wn * d):
            if va - vb == 1:
                # bisection stops after j more halvings, the least j with
                # (b-a) wd <= wn d 2^j: guess no deeper
                x, y = (b - a) * wd, wn * d
                j = x.bit_length() - y.bit_length()
                e = min(e, j + (y << j < x))
            if va - vb == 1 and e > 1:
                # part i of 2^e by the secant, confirmed by sf's signs at its
                # ends; an end of the bracket keeps its value, rescaled
                i, span = (fa << e) // (fa - fb), b - a
                m, d2 = (a << e) + i * span, d << e
                fm = sf.homogeneous(m, d2) if i else fa << e * n
                if fm and (fm > 0) == (fa > 0):
                    fr = (sf.homogeneous(m + span, d2) if i + 1 < 1 << e
                          else fb << e * n)
                    if fr and (fr > 0) == (fb > 0):
                        a, b, d, fa, fb, e = m, m + span, d2, fm, fr, 2 * e
                        continue
                e //= 2
            else:
                e = 2
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
            if va - vb == 1:
                # one simple root, and sf(a) != 0: the sign of sf(m) decides
                if (fm > 0) == (fa > 0):
                    a, fa = m, fm
                else:
                    b, fb = m, fm
            else:
                vm = _variations(chain, m, d)
                stack.append((m, b, d, vm, vb, fm, fb))
                b, vb, fb = m, vm, fm
        if va - vb != 1:
            continue
        # a bracket of a coarse width can still end at lo or hi
        while a * d0 == a0 * d or b * d0 == b0 * d:
            a, b, d, m = 2 * a, 2 * b, 2 * d, a + b
            fm = sf.homogeneous(m, d)
            if fm == 0:
                # landed on the (rational) root: rebuild a bracket inside, off
                # it by a quarter of the least of m - lo, hi - m and b - a
                off = min(m * d0 - a0 * d, b0 * d - m * d0, (b - a) * d0)
                a, b, d = 4 * m * d0 - off, 4 * m * d0 + off, 4 * d * d0
                break
            if (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
        a, b = Fraction(a, d), Fraction(b, d)
        out.append(RootInterval(a, b, "exact",
                                exact_value=identify_rational_root(sf, a, b)))
    return out


def simplest_rational_in(lo, hi):
    """The rational with the smallest denominator in the closed interval [lo, hi]."""
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
    sign.  Bisecting to width at most 1/l leaves one candidate j/l to test,
    so None proves the root irrational.
    """
    p = _as_intpoly(p)
    lo, hi = Fraction(lo), Fraction(hi)
    v_lo, v_hi = p.homogeneous(lo), p.homogeneous(hi)
    if v_lo == 0 or v_hi == 0:
        return lo if v_lo == 0 else hi
    if (v_lo > 0) == (v_hi > 0):
        return None
    grid = abs(p.coeffs[-1]) // math.gcd(*p.coeffs)
    positive_left = v_lo > 0
    while (hi - lo) * grid > 1:
        mid = (lo + hi) / 2
        v = p.homogeneous(mid)
        if v == 0:
            return mid
        if (v > 0) == positive_left:
            lo = mid
        else:
            hi = mid
    cand = Fraction(math.floor(lo * grid) + 1, grid)
    if cand < hi and p.homogeneous(cand) == 0:
        return cand
    return None
