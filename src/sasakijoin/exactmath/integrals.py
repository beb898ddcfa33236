"""The weighted monomial integral W(r,q,c,x) = int_{-1}^{1} t^r (ct+1)^q (1+xt) dt.

For q >= 0 (or c = 0) the integrand is a polynomial and the integral is a
finite even-power sum.  For q < 0 the substitution u = ct+1 turns the integrand
into a Laurent polynomial in u: exact antidifferentiation term by term, valid
exactly when no u^(-1) monomial appears with nonzero coefficient.
"""

from fractions import Fraction

from ..errors import DomainError, LogarithmicTerm
from .unipoly import UniPoly


def integrate_weighted_monomial(r, q, c, x):
    """Exact value of int_{-1}^{1} t^r (ct+1)^q (1+xt) dt.

    r: small nonnegative integer; q: integer; |c| < 1 so ct+1 > 0 on [-1,1].
    Raises LogarithmicTerm when the u = ct+1 expansion hits a u^(-1) term.

    No library code calls it; it stays only because perfbench/tracer.py times
    it, until ROADMAP item 3 deletes it after item 1c.
    """
    if r < 0 or int(r) != r:
        raise DomainError(f"r must be a nonnegative integer, got {r!r}")
    if int(q) != q:
        raise DomainError(f"q must be an integer, got {q!r}")
    r, q = int(r), int(q)
    c, x = Fraction(c), Fraction(x)
    if not abs(c) < 1:
        raise DomainError(f"need |c| < 1, got c = {c}")

    if q >= 0 or c == 0:
        # Polynomial branch: expand, keep even powers (odd ones integrate to 0).
        integrand = (
            UniPoly((1, c)) ** max(q, 0)
            * UniPoly([0] * r + [1])
            * UniPoly((1, x))
        )
        total = Fraction(0)
        for m, a in enumerate(integrand.coeffs):
            if m % 2 == 0:
                total += a * Fraction(2, m + 1)
        return total

    # u = ct+1: t = (u-1)/c, dt = du/c, limits u(-1) = 1-c, u(1) = 1+c.
    # integrand dt = u^q (u-1)^r (xu + (c-x)) / c^(r+2) du
    num = UniPoly((-1, 1)) ** r * UniPoly((c - x, x))
    lo, hi = 1 - c, 1 + c
    total = Fraction(0)
    for j, b in enumerate(num.coeffs):
        if b == 0:
            continue
        e = q + j
        if e == -1:
            raise LogarithmicTerm(
                f"u^(-1) term with coefficient {b} at r={r}, q={q}"
            )
        total += b * (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
    return total / c ** (r + 2)
