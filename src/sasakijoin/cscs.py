"""The constant-scalar-curvature condition along the c-line and its roots.

The condition is a rational function of c whose denominator is a power of
(1 - c^2).  For p = 5 the numerator has a frozen closed form (h_poly_p5, up
to the constant 4/9); for general p it is recovered by exact interpolation
(condition_numerator) and then fed to the certified root machinery.
"""

from fractions import Fraction

from .errors import DomainError, InconsistentSystem, InterpolationMismatch, WrongWeight
from .exactmath import (
    RootInterval,
    UniPoly,
    identify_rational_root,
    solve_exact,
    squarefree_part,
)
from .exactmath.roots import _isolate_reduced, _strip_endpoint_roots
from .profile import alpha, beta


def csc_condition(setup, c):
    """Exact value of the scalar quantity whose vanishing marks a cscS ray."""
    c = Fraction(c)
    p = setup.p
    return (alpha(setup, c, 1, -p) * beta(setup, c, 0, -(p - 1))
            - alpha(setup, c, 0, -p) * beta(setup, c, 1, -(p - 1)))


def h_poly_p5(setup):
    """Closed-form numerator polynomial in c for weight p = 5.

    csc_condition(setup, c) * 9 (1-c^2)^7 / 4 equals this polynomial.
    """
    if setup.p != 5:
        raise WrongWeight(f"closed form requires p = 5, got p = {setup.p}")
    a, s, x = setup.a, setup.s, setup.x
    return UniPoly([
        3 * x * (s * x - 2),
        21 - 3 * a - 3 * s * x + 3 * x ** 2 + a * x ** 2,
        4 * x * (a - 9 - s * x),
        4 * (a + s * x + 6 * x ** 2 - a * x ** 2),
        x * (s * x - 6 - 4 * a),
        3 - a - s * x - 3 * x ** 2 + 3 * a * x ** 2,
    ])


def _interpolation_nodes(count, scale_den):
    nodes = []
    i = 1
    while len(nodes) < count:
        cand = Fraction(i, scale_den)
        nodes.append(cand)
        nodes.append(-cand)
        i += 1
    return nodes[:count]


def _interpolate(setup, degree_bound):
    exponent = 2 * setup.p - 3
    nodes = _interpolation_nodes(degree_bound + 2 + 3, degree_bound + 3)
    fit_nodes, check_nodes = nodes[:degree_bound + 2], nodes[degree_bound + 2:]

    def target(c):
        return csc_condition(setup, c) * (1 - c * c) ** exponent

    rows = [[c ** j for j in range(degree_bound + 1)] for c in fit_nodes]
    vec = [target(c) for c in fit_nodes]
    try:
        coeffs = solve_exact(rows, vec)
    except InconsistentSystem as exc:
        raise InterpolationMismatch(
            f"degree bound {degree_bound} cannot fit the condition numerator; "
            f"retry with degree_bound={2 * degree_bound}") from exc
    numerator = UniPoly(coeffs)
    for c in check_nodes:
        if numerator(c) != target(c):
            raise InterpolationMismatch(
                f"interpolated numerator fails verification at c={c}; degree "
                f"bound {degree_bound} is too small, retry with "
                f"degree_bound={2 * degree_bound}")
    return numerator


def condition_numerator(setup, degree_bound=None):
    """The polynomial N with csc_condition(c) * (1-c^2)^(2p-3) = N(c), exactly.

    Found by interpolation at degree_bound+2 rational nodes and verified at 3
    more.  With no explicit bound, starts at 2p and doubles up to 8p before
    giving up with InterpolationMismatch.
    """
    if degree_bound is not None:
        return _interpolate(setup, degree_bound)
    bound = 2 * setup.p
    while True:
        try:
            return _interpolate(setup, bound)
        except InterpolationMismatch:
            if bound >= 8 * setup.p:
                raise
            bound *= 2


def csc_roots(setup, width):
    """All roots of the cscS condition in (-1, 1), certified.

    Each root comes back as a RootInterval of width <= width; exact_value
    holds the root when it is rational, and None proves it irrational.
    """
    width = Fraction(width)
    if width <= 0:
        raise DomainError("width must be positive")
    numerator = condition_numerator(setup)
    if not numerator:
        raise DomainError("cscS condition vanishes identically")
    # one reduction serves isolation and identification; boundary roots are
    # not cone rays
    one = Fraction(1)
    reduced = _strip_endpoint_roots(squarefree_part(numerator), -one, one)
    out = []
    for interval in _isolate_reduced(reduced, -one, one, width):
        lo, hi = _shrink_into_open_cone(reduced, interval.lo, interval.hi)
        exact = identify_rational_root(reduced, lo, hi)
        out.append(RootInterval(lo, hi, interval.multiplicity_note,
                                exact_value=exact))
    return out


def _shrink_into_open_cone(reduced, lo, hi):
    """Bisect a root bracket until it sits strictly inside (-1, 1).

    Coarse isolation widths can leave a bracket endpoint at the cone boundary
    even though the root itself is interior; consumers classify rays at the
    bracket endpoints, so keep those classifiable.
    """
    while lo <= -1 or hi >= 1:
        mid = (lo + hi) / 2
        v = reduced(mid)
        if v == 0:
            # landed on the (rational) root: rebuild a tiny interior bracket
            off = min(1 - abs(mid), hi - lo) / 4
            return mid - off, mid + off
        if (v > 0) == (reduced(lo) > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi
