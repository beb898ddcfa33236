"""Classification of the c-parametrized subcone: extremal regions and moats.

A ray is extremal iff H = P/(1-z^2) > 0 on (-1, 1), for the integer rows
(D, P1, P2, P_0..P_p) of its profile: profile gives them with D > 0, so H is
F/(1-z^2) times a positive factor.  rows_extremal is the one extremal
verdict, a Sturm test on H from one ray's int rows, for classify_ray, the
profile command and every ray a scan probes.  One exact recursion divides by
1-z^2 (_over_one_minus_z2), on one ray's int rows or once on the table's
rows over Z[c] (_cone_rows), the whole-cone certificate's input.

A scan builds the setup's certified profile table once and reads each ray
it probes, c = n/m, off one integer row evaluation (ProfileTable.rows_at),
with no per-ray profile.  At a grid ray that gives F = P/D (profile.rows_F)
and the cscS verdict m P1 == n P2 in ints (profile.rows_cscS, as cscS_check
for a profile); render reads its slope (m-n)/(m+n) off c (slope).
A report stores only what the scan decides: its connectivity is read from
whole_cone_boxes and a cscS root's contested label from genuine.

When the Bernstein coefficients of H prove H > 0 on the closed square
[-1, 1]^2 (exactmath.certify_positive, in at most 16 boxes), every ray is
extremal: each grid ray's verdict, the one extremal region with no moat, and
the label genuine of every cscS root follow with no Sturm test, and
connectivity is "proven".

Otherwise rows_extremal gives the verdict at each grid ray, bisection
midpoint and cscS root bracket end.  Each extremal/non-extremal transition
between grid points is bisected down to a bracket of width <=
boundary_width, and a cscS root is labelled by the verdict at its exact
value, or at both ends of its bracket.
Regions are reported with bracket endpoints, since the exact boundary between
certified sample points is not decided, and a moat between two samples would
go unseen: connectivity is "sampled", not proven.  Nor is a change beyond the
outermost rays c = +-(grid_n-1)/(grid_n+1), +-16/17 at the default 33: the
cone's ends are never probed, and the end regions are reported as reaching
-1 and 1.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .cscs import csc_roots
from .errors import DomainError, InexactDivision
from .exactmath import IntPoly, UniPoly, certify_positive, is_positive_on_open
from .profile import compute_profile, cscS_check, profile_table, rows_cscS, rows_F


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
    (left.hi, right.lo) nor to be contained in (left.lo, right.hi).  Nor is
    a change beyond the outermost samples, c = +-(grid_n-1)/(grid_n+1).
    """

    left: Tuple[Fraction, Fraction]
    right: Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class CscRayEntry:
    """One root of the cscS condition, labeled by extremality at the root.

    genuine is None when the isolating interval straddles an extremality
    boundary: the root is contested and the verdict is left open.
    """

    root: object  # RootInterval
    genuine: Optional[bool]

    @property
    def contested(self):
        return self.genuine is None


@dataclass(frozen=True)
class ConeScanReport:
    setup: object
    rays: tuple
    extremal_intervals: tuple
    moats: tuple
    csc_rays: tuple
    boundary_width: Fraction
    # boxes of the whole-cone certificate; None when it did not hold
    whole_cone_boxes: Optional[int]

    @property
    def connectivity(self):
        """"proven" iff the whole-cone certificate held, "sampled" if not."""
        return "sampled" if self.whole_cone_boxes is None else "proven"


def _over_one_minus_z2(P):
    """H_0..H_(p-2) with P = (1-z^2) H, for P_0..P_p ints or IntPolys in c:
    H_k = P_k + H_(k-2), exact iff H_(p-1) = H_p = 0, as P(+-1) = 0 on
    certified rows; InexactDivision otherwise."""
    H = []
    for k, Pk in enumerate(P):
        H.append(Pk + H[k - 2] if k >= 2 else Pk)
    if H[-2] or H[-1]:
        raise InexactDivision("the profile's P is not divisible by 1-z^2")
    return H[:-2]


def rows_extremal(rows):
    """The extremal verdict of a ray's integer rows (D, P1, P2, P_0..P_p),
    at any common positive scale: H = P/(1-z^2) > 0 on (-1, 1)."""
    H = _over_one_minus_z2(rows[3:])
    return is_positive_on_open(IntPoly(H).primitive(), -1, 1)


def classify_ray(setup, c):
    """Profile plus the two verdicts for a single ray: extremal and cscS."""
    prof = compute_profile(setup, c)
    return RayClassification(c=prof.c, extremal=rows_extremal(prof.rows),
                             cscS=cscS_check(prof), F=prof.F)


def slope(c):
    """Slope (1-c)/(1+c) of the ray's direction in the first-quadrant
    picture, for an int or Fraction c = n/m: (m-n)/(m+n), one Fraction."""
    n, m = c.numerator, c.denominator
    if n == -m:
        raise DomainError("slope undefined at c = -1")
    return Fraction(m - n, m + n)


def _cone_rows(table):
    """H = P(z, c)/(1-z^2) on the table, as int rows, one per power of z,
    each its coefficients in c: certify_positive's input."""
    return [h.coeffs for h in _over_one_minus_z2(table.rows[3:])]


def _bisect_transition(extremal_at, lo, hi, lo_extremal, boundary_width):
    while hi - lo > boundary_width:
        mid = (lo + hi) / 2
        if extremal_at(mid) == lo_extremal:
            lo = mid
        else:
            hi = mid
    return lo, hi


# the largest grid a scan takes (README, --grid-n)
GRID_N_MAX = 4096
# the narrowest boundary bracket a scan bisects to (README, --boundary-width)
BOUNDARY_WIDTH_MIN = Fraction(1, 2 ** 256)


def scan(setup, grid_n=33, boundary_width=Fraction(1, 2048)):
    """Classify the grid c = -1 + 2i/(grid_n+1), 8 <= grid_n <= GRID_N_MAX,
    bracket each boundary to boundary_width >= BOUNDARY_WIDTH_MIN, and report."""
    if not (isinstance(grid_n, int) and 8 <= grid_n <= GRID_N_MAX):
        raise DomainError(f"grid_n must be an integer in [8, {GRID_N_MAX}], got {grid_n!r}")
    boundary_width = Fraction(boundary_width)
    if boundary_width < BOUNDARY_WIDTH_MIN:
        raise DomainError("boundary_width must be at least 1/2^256")

    table = profile_table(setup)
    boxes = certify_positive(_cone_rows(table))
    proven = boxes is not None

    def extremal_at(c):
        return proven or rows_extremal(table.rows_at(c))

    def ray(c):
        rows = table.rows_at(c)
        return RayClassification(c=c, extremal=proven or rows_extremal(rows),
                                 cscS=rows_cscS(c, rows), F=rows_F(rows))

    grid = [Fraction(2 * i - grid_n - 1, grid_n + 1) for i in range(1, grid_n + 1)]
    rays = [ray(c) for c in grid]

    # boundary brackets between runs of constant extremality, plus the edges
    borders = [(Fraction(-1), Fraction(-1))]
    segment_flags = [rays[0].extremal]
    for prev, cur in zip(rays, rays[1:]):
        if cur.extremal != prev.extremal:
            borders.append(_bisect_transition(extremal_at, prev.c, cur.c,
                                              prev.extremal, boundary_width))
            segment_flags.append(cur.extremal)
    borders.append((Fraction(1), Fraction(1)))

    regions = list(zip(segment_flags, map(ConeInterval, borders, borders[1:])))

    entries = []
    for root in csc_roots(setup, boundary_width):
        probes = (root.lo, root.hi) if root.exact_value is None else (root.exact_value,)
        verdicts = {extremal_at(c) for c in probes}
        genuine = verdicts.pop() if len(verdicts) == 1 else None
        entries.append(CscRayEntry(root=root, genuine=genuine))

    return ConeScanReport(
        setup=setup,
        rays=tuple(rays),
        extremal_intervals=tuple(region for flag, region in regions if flag),
        moats=tuple(region for flag, region in regions if not flag),
        csc_rays=tuple(entries),
        boundary_width=boundary_width,
        whole_cone_boxes=boxes,
    )
