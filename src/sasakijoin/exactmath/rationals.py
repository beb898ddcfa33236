"""Exact rational scalars and their text forms.

Rational is fractions.Fraction: always lowest terms, positive denominator,
arbitrary precision.  Decimals never enter a computation; they exist only as a
display rendering next to the exact string.
"""

import re
from fractions import Fraction

from ..errors import DomainError

Rational = Fraction


def parse_rational(text):
    """Parse "p/q" or an integer string, -?[0-9]+(/[0-9]+)? once stripped,
    into a Rational.  Decimals are rejected: silent precision loss is worse
    than an error.  So are "+", digit separators and non-ASCII digits."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise DomainError(f"expected rational string, got {type(text).__name__}")
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text.strip())
    if match is None:
        raise DomainError(f"not a rational p/q (decimal notation is rejected): {text!r}")
    num, den = match.groups(default="1")
    if int(den) == 0:
        raise DomainError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den))


def format_rational(value):
    """Render a Rational as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value):
    """Display-only decimal rendering of a Rational."""
    return repr(float(Fraction(value)))
