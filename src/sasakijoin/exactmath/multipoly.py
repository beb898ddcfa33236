"""Sparse multivariate polynomials over exact rationals.

Terms map exponent tuples (one slot per variable) to nonzero Fraction
coefficients.  The variable count is fixed at construction.
"""

from fractions import Fraction

from ..errors import DomainError


class MultiPoly:
    """Immutable sparse polynomial in n_vars variables."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars, terms=None):
        if n_vars < 0:
            raise DomainError("n_vars must be nonnegative")
        self.n_vars = n_vars
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n_vars or any(e < 0 for e in exps):
                raise DomainError(f"bad exponent vector {exps} for {n_vars} variables")
            c = Fraction(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = dict(clean)

    @classmethod
    def constant(cls, n_vars, value):
        value = Fraction(value)
        if value == 0:
            return cls(n_vars)
        return cls(n_vars, {tuple([0] * n_vars): value})

    @classmethod
    def variable(cls, n_vars, i):
        exps = tuple(1 if j == i else 0 for j in range(n_vars))
        return cls(n_vars, {exps: Fraction(1)})

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def is_affine(self):
        """True iff every monomial has total degree <= 1."""
        return all(sum(e) <= 1 for e in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for exps in sorted(self.terms):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e)
            c = self.terms[exps]
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return "MultiPoly(" + " + ".join(parts) + ")"

    def _check_same(self, other):
        if self.n_vars != other.n_vars:
            raise DomainError("variable counts differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n_vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
            if out[e] == 0:
                del out[e]
        return MultiPoly(self.n_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n_vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return MultiPoly(
                self.n_vars, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
                if out[e] == 0:
                    del out[e]
        return MultiPoly(self.n_vars, out)

    __rmul__ = __mul__

    def diff(self, i):
        """Partial derivative with respect to variable i."""
        out = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                e2 = tuple(v - 1 if j == i else v for j, v in enumerate(e))
                out[e2] = out.get(e2, Fraction(0)) + c * e[i]
        return MultiPoly(self.n_vars, out)
