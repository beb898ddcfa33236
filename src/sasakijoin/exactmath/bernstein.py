"""Positivity of a bivariate integer polynomial on a box, by its Bernstein
coefficients (the classical range bound: Garloff 1986; Zettler-Garloff 1998).

On [lo, hi], with lo = a/d and hi = b/d over one denominator d > 0, the
substitution t = (a + b u)/(d (u+1)) sends u in [0, oo] onto [lo, hi], and
for p of formal degree n

    d^n (u+1)^n p((a + b u)/(d (u+1))) = sum_i d^n C(n, i) b_i u^i,

b_i the Bernstein coefficients of p on [lo, hi]: with l = u/(u+1) in [0, 1],
t = lo (1-l) + hi l and (u+1)^n l^i (1-l)^(n-i) = u^i.  The left side is
v^n S(1/v) at v = u+1, for S(w) = sum_k p_k (b + (a-b) w)^k d^(n-k), so it
takes one integer Horner pass (S), one reversal and one Taylor shift by 1.
Done along z and then along c, it gives the tensor coefficients of a box
times d^n e^m C(n, i) C(m, j) > 0.  As the Bernstein basis is nonnegative and
sums to 1, the polynomial is at least the least b_ij on the closed box, so
all of them > 0 proves it positive there.  The four corner coefficients are
the polynomial's values at the corners times that factor.
"""

from fractions import Fraction
from math import lcm

# the most boxes a certificate may use
MAX_BOXES = 16


def _axis(coeffs, lo, hi):
    """[d^n C(n, i) b_i], i = 0..n, for p = sum coeffs[k] t^k of formal
    degree n = len(coeffs) - 1, and b_i its Bernstein coefficients on
    [lo, hi] (module docstring)."""
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    s, dk = [coeffs[-1]], 1
    for pk in reversed(coeffs[:-1]):
        # s <- s (b + (a-b) w) + pk d^(n-k)
        dk *= d
        s = [b * u + (a - b) * v for u, v in zip(s + [0], [0] + s)]
        s[0] += pk * dk
    s.reverse()
    n = len(s) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            s[j] += s[j + 1]
    return s


def _box_coefficients(rows, z_side, c_side):
    """The scaled tensor Bernstein coefficients [i][j] on z_side x c_side of
    H = sum rows[i][j] z^i c^j, of formal degrees len(rows) - 1 in z and the
    longest row's length - 1 in c (at least 0, so that H = 0 has one zero
    coefficient)."""
    m = max(1, *map(len, rows))
    cols = [_axis([row[j] if j < len(row) else 0 for row in rows], *z_side)
            for j in range(m)]
    return [_axis(list(row), *c_side) for row in zip(*cols)]


def certify_positive(rows, box=((-1, 1), (-1, 1))):
    """The number of boxes, at most MAX_BOXES, whose scaled Bernstein
    coefficients all prove H = sum rows[i][j] z^i c^j > 0 on the closed box
    [z0, z1] x [c0, c1], given as ((z0, z1), (c0, c1)) with rational ends;
    None when no such cover was found.

    rows are int sequences, at least one, one per power of z.  A box that fails is halved
    along its wider side (z on a tie), and each half is transformed again
    from H.  A corner coefficient <= 0 is H <= 0 at a corner of the box, so
    the search stops there with None.
    """
    pending = [tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)]
    proven = 0
    while pending:
        z_side, c_side = pending.pop()
        coeffs = _box_coefficients(rows, z_side, c_side)
        if all(v > 0 for row in coeffs for v in row):
            proven += 1
            continue
        if min(coeffs[0][0], coeffs[0][-1], coeffs[-1][0], coeffs[-1][-1]) <= 0:
            return None
        if proven + len(pending) + 2 > MAX_BOXES:
            return None
        (z0, z1), (c0, c1) = z_side, c_side
        if z1 - z0 >= c1 - c0:
            mid = (z0 + z1) / 2
            pending += [((z0, mid), c_side), ((mid, z1), c_side)]
        else:
            mid = (c0 + c1) / 2
            pending += [(z_side, (c0, mid)), (z_side, (mid, c1))]
    return proven
