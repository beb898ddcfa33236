"""Dense univariate polynomials over the integers.

Coefficients are ints, stored lowest degree first and trimmed as in UniPoly.
The ring operations +, - and x each also take a plain int, so x by an int is
int scaling.  On top of them are derivative, content and primitive part, the
pseudo-remainder with a positive multiplier, the package's one remainder
sequence (the primitive PRS of Collins and Brown-Traub, read by Sturm chains
and gcds alike), exact division, and homogeneous evaluation, whose sign is the
sign of the value at a rational point, given as a Fraction or as an integer
pair n, m > 0 not necessarily in lowest terms.  Staying in Z skips the gcd
that every Fraction operation pays; from_unipoly and UniPoly(poly.coeffs)
convert.  The cscS numerator is built with IntPolys, and root isolation
bisects on integer numerators.
"""

from math import gcd, lcm

from ..errors import InexactDivision


class IntPoly:
    """Immutable univariate polynomial with int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_unipoly(cls, p):
        """The primitive integer multiple of a UniPoly by a positive factor, so
        its roots and its sign at every point are those of p."""
        den = lcm(*(c.denominator for c in p.coeffs))
        return cls(c.numerator * (den // c.denominator) for c in p.coeffs).primitive()

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, (other,) if isinstance(other, int) else other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([u + v for u, v in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-u for u in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([u * other for u in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, u in enumerate(self.coeffs):
            if u:
                for j, v in enumerate(other.coeffs):
                    out[i + j] += u * v
        return IntPoly(out)

    __rmul__ = __mul__

    def derivative(self):
        return IntPoly([i * u for i, u in enumerate(self.coeffs) if i])

    def primitive(self):
        """self divided by its content, the positive gcd of its coefficients
        (the zero polynomial stays)."""
        g = gcd(*self.coeffs)
        if g <= 1:
            return self
        return IntPoly([u // g for u in self.coeffs])

    def prem(self, other):
        """Pseudo-remainder r with |lc|^(delta+1) self = q other + r, where lc
        is other's leading coefficient and delta = deg self - deg other; self
        itself when deg self < deg other.  The multiplier is positive, so r is
        a positive multiple of the remainder over Q."""
        b = other.coeffs if other.coeffs[-1] > 0 else tuple(-v for v in other.coeffs)
        e, lc = len(b) - 1, b[-1]
        rem = list(self.coeffs)
        for top in range(len(rem) - 1, e - 1, -1):
            f = rem[top]
            rem = [lc * u for u in rem]
            for j, v in enumerate(b):
                rem[top - e + j] -= f * v
            rem.pop()
        return IntPoly(rem)

    def remainder_sequence(self, other):
        """[t_0, t_1, ...] = [self, other, ...] up to the last nonzero term,
        with t_(i+1) = -pp(prem(t_(i-1), t_i)), pp the division by the content.

        The Euclidean sequence over Q is s_0 = self, s_1 = other and
        s_(i+1) = -rem(s_(i-1), s_i).  Each t_i is a positive multiple of
        s_i, by induction: if t_(i-1) = a s_(i-1) and t_i = b s_i, a, b > 0,
        then rem(t_(i-1), t_i) = a rem(s_(i-1), s_i) = -a s_(i+1), as scaling
        the divisor does not change a remainder, and prem has a positive
        multiplier.  So both stop at the same length with the same signs
        everywhere: with other = self' this is a Sturm sequence of self, and
        the last term is a multiple of gcd(self, other) over Q.  Dividing out the
        content keeps the coefficients polynomial in size.
        """
        seq = [self, other]
        while seq[-1]:
            seq.append(-seq[-2].prem(seq[-1]).primitive())
        seq.pop()
        return seq

    def exact_div(self, other):
        """Quotient q with self = q other exactly over Z; InexactDivision
        otherwise."""
        b = other.coeffs
        e, lc = len(b) - 1, b[-1]
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - e, 0)
        for i in range(len(q) - 1, -1, -1):
            q[i], r = divmod(rem[i + e], lc)
            if r:
                break  # rem[i + e] != 0 stays: inexact
            for j, v in enumerate(b):
                rem[i + j] -= q[i] * v
        if any(rem):
            raise InexactDivision(f"{self.coeffs!r} is not divisible by {b!r} over Z")
        return IntPoly(q)

    def homogeneous(self, n, m=None):
        """m^deg self(n/m) for ints n and m > 0, in lowest terms or not: an
        int with the sign of self(n/m).  With m omitted, n is a rational read
        in lowest terms, so the value is den(n)^deg self(n)."""
        if m is None:
            n, m = n.numerator, n.denominator
        acc, mk = 0, 1
        for u in reversed(self.coeffs):
            acc = acc * n + u * mk
            mk *= m
        return acc
