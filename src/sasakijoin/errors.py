"""Exception types shared across the package.

Every certification path is exact, so these errors mean the *inputs* left the
supported domain or an internal check failed; they are never used to mask
rounding.
"""


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


class ZeroPolynomial(ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class InexactDivision(ArithmeticError):
    """Polynomial division left a nonzero remainder where exactness was required."""


class LogarithmicTerm(ArithmeticError):
    """The weighted integral produced a u^(-1) monomial, so the antiderivative is
    not rational.  Signals use outside the supported exponent range (weight 4)."""


class SingularSystem(ArithmeticError):
    """A linear system that must be uniquely solvable is singular."""


class InconsistentSystem(ArithmeticError):
    """An overdetermined linear system has no solution (internal signal)."""


class InternalInconsistency(RuntimeError):
    """A post-solve verification failed.  Results are never returned unverified."""


class WrongWeight(ValueError):
    """The operation only applies to a specific weight p."""
