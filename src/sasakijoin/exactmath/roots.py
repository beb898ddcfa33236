"""Certified real-root machinery: Sturm counting, isolation, identification.

Everything here is exact.  isolate_roots is the one path from a polynomial to
its certified roots: it takes the squarefree part, divides out roots at the
interval ends, brackets each remaining root strictly inside the open interval
by a RootInterval certified "exact" (a Sturm count over the bracket equals 1),
and pins the root to a rational value that exact evaluation confirms, or
proves it irrational by the rational root theorem.

Counting, positivity and isolation work on the primitive integer multiple of
the polynomial (IntPoly): the Sturm sequences are primitive pseudo-remainder
sequences over Z, and every sign is read by homogeneous integer evaluation
(sturm_count_roots has the proof that the counts are Sturm's).
"""

from dataclasses import dataclass
from fractions import Fraction
import math
from typing import Optional

from ..errors import DomainError, ZeroPolynomial
from .intpoly import IntPoly
from .unipoly import UniPoly, squarefree_part


@dataclass(frozen=True)
class RootInterval:
    """Open interval (lo, hi) certified to contain exactly one root.

    multiplicity_note records the certificate: "exact" (Sturm count = 1) or
    "sign-change" (opposite signs at the endpoints).  exact_value is the root
    when it is rational; on an interval from isolate_roots, None proves the
    root irrational.
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
        if self.multiplicity_note not in ("exact", "sign-change"):
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
    chain = [p, p.derivative()]
    while True:
        r = chain[-2].prem(chain[-1])
        if not r:
            return chain
        chain.append(-r.primitive())


def _variations(chain, t):
    signs = [v > 0 for v in (q.homogeneous(t) for q in chain) if v]
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


def sturm_count_roots(p, lo, hi):
    """Number of distinct real roots of p in the open interval (lo, hi).

    p is a UniPoly or an IntPoly; a UniPoly is replaced once by its primitive
    integer multiple with a positive factor, which has the same roots.  One
    Sturm sequence is built on w, that polynomial with its roots at lo and hi
    divided out.  w need not be squarefree: every element of the sequence is
    a multiple of g = gcd(w, w'), and g does not vanish where w does not, so
    at such a point the sign variations are those of the sequence divided by
    g.  lo and hi are such points, so the variation count is the number of
    distinct roots (Sturm's theorem in its general form).

    The sequence is computed over Z.  The classical one is s_0 = w, s_1 = w'
    and s_(i+1) = -rem(s_(i-1), s_i) over Q; here t_0 = w, t_1 = w' and
    t_(i+1) = -pp(prem(t_(i-1), t_i)), with prem the pseudo-remainder by the
    positive multiplier |lc(t_i)|^(delta+1) and pp the division by the
    positive content.  Each t_i is a positive multiple of s_i, by induction:
    if t_(i-1) = a s_(i-1) and t_i = b s_i with a, b > 0, then
    rem(t_(i-1), t_i) = a rem(s_(i-1), s_i) = -a s_(i+1), since scaling the
    divisor does not change a remainder, so prem(t_(i-1), t_i) is a positive
    multiple of -s_(i+1) and t_(i+1) one of s_(i+1).  Both sequences thus
    stop at the same length and have the same signs at every point, and every
    variation count is the classical one.  Dividing out the content keeps the
    coefficients polynomial in size (the primitive PRS of Collins and
    Brown-Traub); the signs are read by homogeneous evaluation, in integers.
    """
    if not p:
        raise ZeroPolynomial("root counting needs a nonzero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got {lo}, {hi}")
    work = _strip_endpoint_roots(_as_intpoly(p), lo, hi)
    if work.degree < 1:
        return 0
    chain = _sturm_chain(work)
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

    p is reduced to its squarefree part and its roots at lo and hi are divided
    out.  Each RootInterval then holds exactly one root of that part, certified
    by a Sturm count of 1 (multiplicity_note "exact"); it is at most width wide
    and lies strictly inside (lo, hi), so both its ends are points of the open
    interval.  exact_value holds the root when it is rational, and None proves
    it irrational.  Returned in increasing order.

    The reduced part is converted once to its primitive integer multiple with
    a positive factor, and every sign test (Sturm variations, bisection, the
    nudge off a root) reads it in integers; identify_rational_root gets the
    same polynomial as a UniPoly.
    """
    if not p:
        raise ZeroPolynomial("isolation needs a nonzero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    width = Fraction(width)
    if width <= 0:
        raise DomainError("width must be positive")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got {lo}, {hi}")
    sf = _strip_endpoint_roots(IntPoly.from_unipoly(squarefree_part(p)), lo, hi)
    if sf.degree < 1:
        return []
    chain = _sturm_chain(sf)
    sf_rational = UniPoly(sf.coeffs)
    out = []
    # (a, b, Sturm variations at a and b, sf(a) scaled); the left half is
    # refined first and the right one waits on the stack, so roots come out
    # in order
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi),
              sf.homogeneous(lo))]
    while stack:
        a, b, va, vb, fa = stack.pop()
        while va - vb > 1 or (va - vb == 1 and b - a > width):
            m, k = (a + b) / 2, 3
            fm = sf.homogeneous(m)
            while fm == 0:
                # nudge the split point off a root; offsets k/(2k+1) are all distinct
                m, k = a + (b - a) * Fraction(k, 2 * k + 1), k + 1
                fm = sf.homogeneous(m)
            if va - vb == 1:
                # one simple root, and sf(a) != 0: the sign of sf(m) decides
                if (fm > 0) == (fa > 0):
                    a, fa = m, fm
                else:
                    b = m
            else:
                vm = _variations(chain, m)
                stack.append((m, b, vm, vb, fm))
                b, vb = m, vm
        if va - vb != 1:
            continue
        # a bracket of a coarse width can still end at lo or hi
        while a == lo or b == hi:
            m = (a + b) / 2
            fm = sf.homogeneous(m)
            if fm == 0:
                # landed on the (rational) root: rebuild a bracket inside
                off = min(m - lo, hi - m, b - a) / 4
                a, b = m - off, m + off
                break
            if (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
        out.append(RootInterval(a, b, "exact",
                                exact_value=identify_rational_root(sf_rational, a, b)))
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

    Requires a sign change across the bracket.  By the rational root theorem
    every rational root of p is j/l with j an integer and l the leading
    coefficient of p's primitive integer multiple, up to sign.  Bisecting to
    width at most 1/l leaves one candidate j/l to test, so None proves the
    root irrational.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    v_lo, v_hi = p(lo), p(hi)
    if v_lo == 0 or v_hi == 0:
        return lo if v_lo == 0 else hi
    if (v_lo > 0) == (v_hi > 0):
        return None
    grid = abs(IntPoly.from_unipoly(p).coeffs[-1])
    positive_left = v_lo > 0
    while (hi - lo) * grid > 1:
        mid = (lo + hi) / 2
        v = p(mid)
        if v == 0:
            return mid
        if (v > 0) == positive_left:
            lo = mid
        else:
            hi = mid
    cand = Fraction(math.floor(lo * grid) + 1, grid)
    if cand < hi and p(cand) == 0:
        return cand
    return None
