"""Classification of the c-parametrized subcone: extremal regions and moats.

A scan builds the setup's certified profile table once (profile_table) and
reads every ray it classifies off the table in integer arithmetic, with no
per-ray solve: the grid points, the bisection midpoints and the ends of the
cscS root brackets.

It first tries to prove the whole cone extremal at once.  On the table,
H(z, c) = sign(D) P(z, c)/(1-z^2) is an integer polynomial (_cone_rows), and
at every ray |c| < 1 it is F/(1-z^2) times |D(c)| > 0.  When the Bernstein
coefficients of H prove H > 0 on the closed square [-1, 1]^2
(exactmath.certify_positive, in at most 16 boxes), every ray is extremal:
each grid ray's verdict, the one extremal region with no moat, and the label
genuine of every cscS root follow with no Sturm test, and connectivity is
"proven".

Otherwise extremality is decided ray by ray, exactly, by a Sturm count over
the integers on sign(D) P/(1-z^2), read off the ray's integer rows
(D, P1, P2, P_0..P_p) (_extremal_rows).  classify_ray reads the same test
off the rows compute_profile keeps in its profile, so no verdict clears F
back to integers.  Each extremal/non-extremal transition between grid points
is bisected down to a bracket of width <= boundary_width, and a cscS root is
labelled by the verdict at its exact value, or at both ends of its bracket.
Regions are reported with bracket endpoints, since the exact boundary between
certified sample points is not decided, and a moat between two samples would
go unseen: connectivity is "sampled", not proven.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .cscs import csc_roots
from .errors import DomainError, InexactDivision
from .exactmath import IntPoly, UniPoly, certify_positive, is_positive_on_open
from .profile import compute_profile, cscS_check, profile_table


@dataclass(frozen=True)
class RayClassification:
    c: Fraction
    extremal: bool
    cscS: bool
    F: UniPoly


@dataclass(frozen=True)
class ConeInterval:
    """A region between two boundary brackets.

    left and right are (lo, hi) brackets for the region's endpoints; at the
    edges of the cone they degenerate to (-1, -1) or (1, 1).  Each bracket
    holds a change of extremality between its two ends, each checked
    exactly.  When the scan's connectivity is "proven", the one extremal
    region is the whole cone (-1, 1).  When it is "sampled", every sample
    ray in (left.hi, right.lo) has the region's verdict, but a change between
    two samples is not ruled out, so the region is not proven to contain
    (left.hi, right.lo) nor to be contained in (left.lo, right.hi).
    """

    left: Tuple[Fraction, Fraction]
    right: Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class CscRayEntry:
    """One root of the cscS condition, labeled by extremality at the root.

    genuine is None when the isolating interval straddles an extremality
    boundary (contested is then True and the verdict is left open).
    """

    root: object  # RootInterval
    genuine: Optional[bool]
    contested: bool


@dataclass(frozen=True)
class ConeScanReport:
    setup: object
    rays: tuple
    extremal_intervals: tuple
    moats: tuple
    csc_rays: tuple
    slope_map: tuple
    boundary_width: Fraction
    connectivity: str
    # boxes of the whole-cone certificate; None when it did not hold
    whole_cone_boxes: Optional[int]


_ONE_MINUS_Z2 = IntPoly((1, 0, -1))


def _extremal_rows(rows):
    """True iff the profile of the integer rows (D, P1, P2, P_0..P_p) of one
    ray is positive on (-1, 1), i.e. F/(1-z^2) is.  sign(D) P is F times a
    positive factor, and its division by 1-z^2 is exact over Z
    (InexactDivision otherwise), so the Sturm test runs on an integer
    polynomial and makes no Fraction."""
    D, _, _, *P = rows
    H = (IntPoly(P) if D > 0 else -IntPoly(P)).primitive().exact_div(_ONE_MINUS_Z2)
    return is_positive_on_open(H, Fraction(-1), Fraction(1))


def _ray(prof, proven=False):
    """The ray of a profile with its two verdicts, extremal read off the
    profile's rows, or without a test when the whole cone is proven."""
    return RayClassification(c=prof.c, extremal=proven or _extremal_rows(prof.rows),
                             cscS=cscS_check(prof), F=prof.F)


def classify_ray(setup, c):
    """Profile plus the two verdicts for a single ray: extremal and cscS."""
    return _ray(compute_profile(setup, c))


def slope(c):
    """Slope (1-c)/(1+c) of the ray's direction in the first-quadrant picture."""
    c = Fraction(c)
    if c == -1:
        raise DomainError("slope undefined at c = -1")
    return (1 - c) / (1 + c)


def _is_extremal_at(table, c):
    """The extremal verdict at the ray c, read off the table's integer rows."""
    return _extremal_rows(table._rows_at(c))


def _cone_rows(table):
    """H = sign(D) P/(1-z^2) as integer rows, one per power of z, each its
    coefficients in c.

    D has no root in (-1, 1) (profile module docstring), so sign(D(0)) is
    its sign at every ray.  P = (1-z^2) Q gives Q_k = P_k + Q_(k-2), and the
    division is exact when the last two remainders Q_(p-1), Q_p are zero, as
    P(+-1, c) = 0 on a certified table; InexactDivision otherwise.
    """
    D, _, _, *P = table._rows
    Q = []
    for k, Pk in enumerate(P):
        Q.append(Pk + Q[k - 2] if k >= 2 else Pk)
    if Q[-2] or Q[-1]:
        raise InexactDivision("the table's P is not divisible by 1-z^2 over Z[c]")
    sign = 1 if D.coeffs[0] > 0 else -1
    return [[sign * v for v in q.coeffs] for q in Q[:-2]]


def _bisect_transition(table, lo, hi, lo_extremal, boundary_width):
    while hi - lo > boundary_width:
        mid = (lo + hi) / 2
        if _is_extremal_at(table, mid) == lo_extremal:
            lo = mid
        else:
            hi = mid
    return lo, hi


def scan(setup, grid_n=33, boundary_width=Fraction(1, 2048)):
    """Classify the grid c = -1 + 2i/(grid_n+1) and assemble the full report."""
    if not (isinstance(grid_n, int) and grid_n >= 8):
        raise DomainError(f"grid_n must be an integer >= 8, got {grid_n!r}")
    boundary_width = Fraction(boundary_width)
    if boundary_width <= 0:
        raise DomainError("boundary_width must be positive")

    table = profile_table(setup)
    boxes = certify_positive(_cone_rows(table))
    proven = boxes is not None

    def extremal_at(c):
        return proven or _is_extremal_at(table, c)

    grid = [Fraction(-1) + Fraction(2 * i, grid_n + 1) for i in range(1, grid_n + 1)]
    rays = [_ray(table.profile_at(c), proven) for c in grid]

    # boundary brackets between runs of constant extremality, plus the edges
    borders = [(Fraction(-1), Fraction(-1))]
    segment_flags = [rays[0].extremal]
    for prev, cur in zip(rays, rays[1:]):
        if cur.extremal != prev.extremal:
            borders.append(_bisect_transition(table, prev.c, cur.c,
                                              prev.extremal, boundary_width))
            segment_flags.append(cur.extremal)
    borders.append((Fraction(1), Fraction(1)))

    extremal_intervals = []
    moats = []
    for idx, flag in enumerate(segment_flags):
        region = ConeInterval(left=borders[idx], right=borders[idx + 1])
        (extremal_intervals if flag else moats).append(region)

    entries = []
    for root in csc_roots(setup, boundary_width):
        if root.exact_value is not None:
            genuine = extremal_at(root.exact_value)
            contested = False
        else:
            at_lo = extremal_at(root.lo)
            at_hi = extremal_at(root.hi)
            contested = at_lo != at_hi
            genuine = None if contested else at_lo
        entries.append(CscRayEntry(root=root, genuine=genuine, contested=contested))

    slope_map = tuple((c, slope(c)) for c in grid)
    return ConeScanReport(
        setup=setup,
        rays=tuple(rays),
        extremal_intervals=tuple(extremal_intervals),
        moats=tuple(moats),
        csc_rays=tuple(entries),
        slope_map=slope_map,
        boundary_width=boundary_width,
        connectivity="proven" if proven else "sampled",
        whole_cone_boxes=boxes,
    )
