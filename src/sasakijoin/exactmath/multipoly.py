"""Sparse multivariate polynomials over exact rationals.

Terms map exponent tuples (one slot per variable) to nonzero Fraction
coefficients.  The variable count is fixed at construction.  A MultiPoly is a
value built from its terms and read through coefficient, is_affine and
equality; it has no arithmetic.
"""

from fractions import Fraction

from ..errors import DomainError


class MultiPoly:
    """Immutable sparse polynomial in n_vars variables."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars, terms=None):
        if not isinstance(n_vars, int) or n_vars < 0:
            raise DomainError(f"n_vars must be an integer >= 0, got {n_vars!r}")
        self.n_vars = n_vars
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n_vars or not all(isinstance(e, int) and e >= 0 for e in exps):
                raise DomainError(f"bad exponent vector {exps} for {n_vars} variables")
            c = Fraction(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = dict(clean)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def is_affine(self):
        """True iff every monomial has total degree <= 1."""
        return all(sum(e) <= 1 for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self.n_vars}, {self.terms!r})"
