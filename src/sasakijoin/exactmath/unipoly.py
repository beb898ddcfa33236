"""Dense univariate polynomials over exact rationals.

UniPoly takes its ring arithmetic (degree, equality, +, -, x, derivative)
from DensePoly in intpoly, with ints and Fractions as scalars, and adds
scalar division, powers, evaluation and the coefficient accessors.
"""

from fractions import Fraction

from .intpoly import DensePoly, IntPoly


class UniPoly(DensePoly):
    """Immutable univariate polynomial with Fraction coefficients."""

    __slots__ = ()
    _scalars = (int, Fraction)

    def __init__(self, coeffs=()):
        # a Fraction is kept as given: Fraction(c) would re-wrap it
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, value):
        return cls((value,))

    @classmethod
    def variable(cls):
        return cls((0, 1))

    # -- structure -------------------------------------------------------------

    @property
    def leading(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}*z^{i}" if i else f"{c}")
        return "UniPoly(" + " + ".join(parts) + ")"

    # -- arithmetic beyond the ring operations -----------------------------------

    def __truediv__(self, scalar):
        return UniPoly(c / Fraction(scalar) for c in self.coeffs)

    def __pow__(self, n):
        out = UniPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, t):
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def exact_divide(num, den):
    """Quotient q with num = q * den exactly; InexactDivision otherwise.

    By Gauss's lemma den divides num over Q iff the primitive integer multiple
    of den divides that of num over Z (IntPoly.exact_div); the quotient is
    rescaled by the ratio num.leading lc(d) / (den.leading lc(n)) of the two
    positive factors.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return UniPoly()
    n, d = IntPoly.from_unipoly(num), IntPoly.from_unipoly(den)
    scale = num.leading * d.coeffs[-1] / (den.leading * n.coeffs[-1])
    return UniPoly(scale * v for v in n.exact_div(d).coeffs)


def poly_gcd(a, b):
    """Monic gcd: the last term of IntPoly.remainder_sequence on the
    primitive integer multiples of a and b, a multiple of the gcd over Q,
    made monic here (the zero polynomial when a and b are both zero).

    Only squarefree_part, itself uncalled, calls it; it stays only because
    perfbench/tracer.py times it, until ROADMAP item 3 deletes it after item 1c.
    """
    g = IntPoly.from_unipoly(a).remainder_sequence(IntPoly.from_unipoly(b))[-1]
    lc = g.coeffs[-1] if g else 1
    return UniPoly(Fraction(v, lc) for v in g.coeffs)


def squarefree_part(p):
    """p divided by gcd(p, p'); shares exactly the distinct roots of p.

    No library code calls it; it stays only because perfbench/tracer.py times
    it, until ROADMAP item 3 deletes it after item 1c.
    """
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    return exact_divide(p, g)
