"""Dense univariate polynomials over the integers.

Coefficients are ints, stored lowest degree first and trimmed as in UniPoly.
Only the ring operations are here: +, - and x, each of which also takes a
plain int, so x by an int is int scaling.  Staying in Z skips the gcd that
every Fraction operation pays; UniPoly(poly.coeffs) converts at the boundary.
"""


class IntPoly:
    """Immutable univariate polynomial with int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

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
