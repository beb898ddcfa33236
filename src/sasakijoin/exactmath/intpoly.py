"""Dense univariate polynomials: their shared ring arithmetic, and IntPoly.

DensePoly writes once the ring operations of IntPoly (over Z) and UniPoly
(over Q): degree, truth value, equality and hash by coefficients, +, -, x
and derivative.  Each returns the operand's class and takes a polynomial of
that class or a scalar of its ring (_scalars; x by one scales); any other
operand is refused with NotImplemented, so mixing the two raises TypeError.
IntPoly adds content and primitive part, the pseudo-remainder with a
positive multiplier, the package's one remainder sequence (the primitive PRS
of Collins and Brown-Traub, read by Sturm chains and gcds alike), exact
division, the value at 2^bits and its inverse on small coefficients (pack
and unpack, Kronecker substitution), and homogeneous evaluation, whose sign
is the sign of the value at a rational point, given as a Fraction or as an
integer pair n, m > 0 not necessarily in lowest terms.  Staying in Z skips
the gcd that every Fraction operation pays; from_unipoly and
UniPoly(poly.coeffs) convert.  The cscS numerator is built with IntPolys,
root isolation bisects on integer numerators, and the profile table is
solved at one power of two and unpacked.
"""

from math import gcd, lcm

from ..errors import InexactDivision


class DensePoly:
    """Immutable polynomial, coefficients lowest degree first and trimmed; a
    subclass builds them and names its ring's scalars in _scalars."""

    __slots__ = ("coeffs",)
    _scalars = ()

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def _terms(self, other):
        """other's coefficients, a scalar's as a constant; None outside the ring."""
        if type(other) is type(self):
            return other.coeffs
        return (other,) if isinstance(other, self._scalars) else None

    def __eq__(self, other):
        if isinstance(other, self._scalars):
            other = type(self)((other,))
        elif type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its scalar, so it hashes as one
        return hash(self.coeffs if len(self.coeffs) > 1 else sum(self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, self._terms(other)
        if b is None:
            return NotImplemented
        if len(a) < len(b):
            a, b = b, a
        return type(self)([u + v for u, v in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return type(self)([-u for u in self.coeffs])

    def __sub__(self, other):
        return NotImplemented if self._terms(other) is None else self + -other

    def __rsub__(self, other):
        return NotImplemented if self._terms(other) is None else -self + other

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return type(self)([u * other for u in self.coeffs])
        if type(other) is not type(self):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, u in enumerate(self.coeffs):
            if u:
                for j, v in enumerate(other.coeffs):
                    out[i + j] += u * v
        return type(self)(out)

    __rmul__ = __mul__

    def derivative(self):
        return type(self)([i * u for i, u in enumerate(self.coeffs) if i])


class IntPoly(DensePoly):
    """Immutable univariate polynomial with int coefficients."""

    __slots__ = ()
    _scalars = int

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
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
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
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
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

    def pack(self, bits):
        """The value at 2^bits, an int (Kronecker substitution)."""
        acc = 0
        for u in reversed(self.coeffs):
            acc = (acc << bits) + u
        return acc

    @classmethod
    def unpack(cls, value, bits):
        """The IntPoly whose value at 2^bits is value and whose coefficients
        lie in [-2^(bits-1), 2^(bits-1)): the balanced base-2^bits digits of
        value, which are unique.  So unpack(p.pack(bits), bits) has the
        coefficients of every p whose coefficients lie below 2^(bits-1) in
        absolute value."""
        coeffs, mask, half = [], (1 << bits) - 1, 1 << (bits - 1)
        while value:
            digit = ((value + half) & mask) - half
            coeffs.append(digit)
            value = (value - digit) >> bits
        return cls(coeffs)

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
