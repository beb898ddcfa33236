"""Exact linear solving over the rationals.

Small, possibly rectangular systems: Gaussian elimination with exact pivots.
No scaling tricks; degrees here are tiny and Fraction absorbs the growth.
"""

from fractions import Fraction

from ..errors import InconsistentSystem, SingularSystem


def solve_exact(rows, rhs):
    """Solve M x = rhs exactly, requiring a unique solution.

    rows: list of coefficient lists (each of equal length n); rhs: list of the
    same length as rows.  Overdetermined systems are fine as long as they are
    consistent.  Raises SingularSystem when rank < n (no unique solution) and
    InconsistentSystem when no solution exists at all.

    No library code calls it; it stays only because perfbench/tracer.py times
    it, until ROADMAP item 3 deletes it after item 1c.
    """
    if not rows:
        raise SingularSystem("empty system")
    n = len(rows[0])
    M = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    piv_cols = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(M)) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][col]
        M[r] = [v / inv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [vi - f * vr for vi, vr in zip(M[i], M[r])]
        piv_cols.append(col)
        r += 1
        if r == len(M):
            break
    for i in range(r, len(M)):
        if M[i][n] != 0:
            raise InconsistentSystem("overdetermined system has no solution")
    if len(piv_cols) < n:
        raise SingularSystem(f"rank {len(piv_cols)} < {n} unknowns")
    sol = [Fraction(0)] * n
    for i, col in enumerate(piv_cols):
        sol[col] = M[i][n]
    return sol
