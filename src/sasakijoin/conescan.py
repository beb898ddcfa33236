"""Classification of the c-parametrized subcone: extremal regions and moats.

A scan builds the setup's certified profile table once (profile_table) and
reads every ray it classifies off the table in integer arithmetic, with no
per-ray solve: the grid points, the bisection midpoints and the ends of the
cscS root brackets.  Extremality is then decided exactly by a Sturm count
over the integers, on F cleared of its denominators and divided by 1-z^2.
A grid ray's F goes into the report, so it is read with profile_at; the
midpoints and root ends need only the verdict, and take sign(D) P straight
from the table's integer rows, with no Fraction.
Each extremal/non-extremal transition between grid points is bisected down
to a bracket of width <= boundary_width.  Regions are reported with bracket
endpoints, since the exact boundary between certified sample points is not
decided (connectivity between samples is "sampled", not proven).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .cscs import csc_roots
from .errors import DomainError
from .exactmath import IntPoly, UniPoly, is_positive_on_open
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
    edges of the cone they degenerate to (-1, -1) or (1, 1).  The region
    certainly contains (left.hi, right.lo) and is contained in
    (left.lo, right.hi).
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


_ONE_MINUS_Z2 = IntPoly((1, 0, -1))


def _positive_inside(P):
    """True iff P, a profile times a positive factor in Z[z], is positive on
    (-1, 1), i.e. P/(1-z^2) is; the division is exact over Z (InexactDivision
    otherwise), so the Sturm test runs on an integer polynomial."""
    return is_positive_on_open(P.exact_div(_ONE_MINUS_Z2), Fraction(-1), Fraction(1))


def is_extremal(F):
    """True iff the profile F is positive on (-1, 1), i.e. F/(1-z^2) is.

    F's denominators are cleared once, by a positive factor, so the test
    makes no Fraction.
    """
    return _positive_inside(IntPoly.from_unipoly(F))


def _classify(prof):
    return RayClassification(c=prof.c, extremal=is_extremal(prof.F),
                             cscS=cscS_check(prof), F=prof.F)


def classify_ray(setup, c):
    """Profile plus the two verdicts for a single ray: extremal and cscS."""
    return _classify(compute_profile(setup, c))


def slope(c):
    """Slope (1-c)/(1+c) of the ray's direction in the first-quadrant picture."""
    c = Fraction(c)
    if c == -1:
        raise DomainError("slope undefined at c = -1")
    return (1 - c) / (1 + c)


def _is_extremal_at(table, c):
    """is_extremal at the ray c, read off the table's integer rows: sign(D) P
    is F times a positive factor."""
    D, _, _, *P = table._rows_at(c)
    return _positive_inside((IntPoly(P) if D > 0 else -IntPoly(P)).primitive())


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
    grid = [Fraction(-1) + Fraction(2 * i, grid_n + 1) for i in range(1, grid_n + 1)]
    rays = [_classify(table.profile_at(c)) for c in grid]

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
            genuine = _is_extremal_at(table, root.exact_value)
            contested = False
        else:
            at_lo = _is_extremal_at(table, root.lo)
            at_hi = _is_extremal_at(table, root.hi)
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
        connectivity="sampled",
    )
