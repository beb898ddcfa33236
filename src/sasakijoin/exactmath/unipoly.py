"""Dense univariate polynomials over exact rationals.

Coefficients are stored lowest degree first and trimmed, so the leading
coefficient is nonzero unless the polynomial is zero (empty tuple).
"""

from fractions import Fraction

from .intpoly import IntPoly


class UniPoly:
    """Immutable univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

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
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}*z^{i}" if i else f"{c}")
        return "UniPoly(" + " + ".join(parts) + ")"

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            (self.coefficient(i) + other.coefficient(i)) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * other for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return UniPoly(c / Fraction(scalar) for c in self.coeffs)

    def __pow__(self, n):
        out = UniPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def derivative(self):
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def __call__(self, t):
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def _coerce(v):
    if isinstance(v, UniPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return UniPoly((v,))
    return None


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
