"""Exact rational scalars and their text forms.

Rational is fractions.Fraction: always lowest terms, positive denominator,
arbitrary precision.  Decimals never enter a computation; they exist only as a
display rendering next to the exact string.
"""

import re
import sys
from fractions import Fraction

from ..errors import DomainError

Rational = Fraction


def parse_rational(text):
    """Parse "p/q" or an integer string, -?[0-9]+(/[0-9]+)? once stripped,
    into a Rational.  Decimals are rejected: silent precision loss is worse
    than an error.  So are "+", digit separators and non-ASCII digits, and
    integers longer than the int->str digit limit (sys.get_int_max_str_digits),
    with a DomainError that names the limit."""
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
    try:
        num, den = int(num), int(den)
    except ValueError:
        # the regex leaves only the int->str digit limit to exceed
        digits, limit = max(len(num.lstrip("-")), len(den)), sys.get_int_max_str_digits()
        raise DomainError(f"a {digits}-digit integer is past the {limit}-digit "
                          "limit of integer conversion") from None
    if den == 0:
        raise DomainError(f"zero denominator: {text!r}")
    return Fraction(num, den)


# Every int->str digit limit allows 640 digits (sys.int_info
# .str_digits_check_threshold), so an int below 2**2000 (at most 603 digits)
# converts directly and a longer one in blocks of 600 digits.
_DIRECT_BITS = 2000
_BLOCK_DIGITS = 600
_BLOCK = 10 ** _BLOCK_DIGITS


def _int_str(n):
    """str(n), at any length and under any setting of the digit limit."""
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    blocks = []
    while n >= _BLOCK:
        n, low = divmod(n, _BLOCK)
        blocks.append(f"{low:0{_BLOCK_DIGITS}d}")
    blocks.append(str(n))
    return sign + "".join(reversed(blocks))


def format_rational(value):
    """Render a Rational or an int as "p/q", or "p" when the denominator is 1,
    with every digit however long p and q are."""
    n, d = value.numerator, value.denominator
    if d == 1:
        return _int_str(n)
    return f"{_int_str(n)}/{_int_str(d)}"


def decimal_str(value):
    """Display-only decimal of a Rational or an int: repr of the nearest
    double under round-to-nearest, the correctly rounded p / q, so "inf" or
    "-inf" past the largest finite double."""
    n, d = value.numerator, value.denominator
    try:
        return repr(n / d)
    except OverflowError:
        return "inf" if n > 0 else "-inf"
