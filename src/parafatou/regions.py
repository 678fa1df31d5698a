"""Sectors and product regions in both charts.

A sector is an open truncated wedge around the positive or negative real
direction: outside radius R at infinity, inside radius eps at the origin,
with a half-angle opening (default 3pi/4). Product regions pair two sectors
and carry one of the four tags; the sign pattern per tag is fixed.

With the default opening a sector and its negative overlap (half-angle
beyond pi/2 covers part of both half-planes), so a point can satisfy several
regions at once. classify resolves that deterministically by angular
distance to the sector centers, with a fixed precedence for exact ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatch, NewtonDiverged, NonFiniteValue, NoValidRadius
from .germs import Point2, SkewGerm2D
from .sampling import low_discrepancy, sector_values
from .series import INFINITY, ORIGIN

DEFAULT_OPENING = 3 * np.pi / 4

TAG_SIGNS = {"i": (1, 1), "o": (-1, -1), "a": (-1, 1), "b": (1, -1)}
TAG_ORDER = ("i", "o", "a", "b")

RADIUS_CANDIDATES = (10, 20, 50, 100, 200, 500)
RADIUS_SAMPLES = 1000
RADIUS_MARGIN = 0.5


def direction_center(direction: int) -> float:
    """Angle of the ray a sector of direction +1 or -1 is centered on."""
    return 0.0 if direction > 0 else np.pi


@dataclass(frozen=True)
class Sector:
    """Open sector: |Arg(direction * xi)| < opening, radius bound by chart."""

    radius: float
    opening: float = DEFAULT_OPENING
    direction: int = 1
    chart: str = INFINITY

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not 0 < self.opening < np.pi:
            raise ValueError("opening must be in (0, pi)")
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")

    @property
    def center(self) -> float:
        return direction_center(self.direction)

    def contains(self, xi):
        """Strict membership; scalar in, bool out; array in, mask out."""
        xi = np.asarray(xi, dtype=complex)
        ang = np.abs(np.angle(self.direction * xi))
        ok = ang < self.opening
        if self.chart == INFINITY:
            ok = ok & (np.abs(xi) > self.radius)
        else:
            ok = ok & (np.abs(xi) < self.radius) & (xi != 0)
        return bool(ok) if ok.ndim == 0 else ok

    def margin(self, xi):
        """Distance-like slack to the boundary; negative outside.

        Radial slack in absolute units, angular slack as arc length, the
        minimum of the two. Used by choose_radius as its invariance margin.
        """
        xi = np.asarray(xi, dtype=complex)
        mag = np.abs(xi)
        if self.chart == INFINITY:
            radial = mag - self.radius
        else:
            radial = self.radius - mag
        ang = np.abs(np.angle(self.direction * xi))
        arc = mag * (self.opening - ang)
        return np.minimum(radial, arc)


@dataclass(frozen=True)
class ProductRegion:
    """Two sectors with a tag; optionally the cap |u|^(M+1) > |v|."""

    first: Sector
    second: Sector
    tag: str
    power_cap: int | None = None

    def __post_init__(self):
        if self.tag not in TAG_SIGNS:
            raise ValueError(f"unknown tag {self.tag!r}")
        su, sv = TAG_SIGNS[self.tag]
        if (self.first.direction, self.second.direction) != (su, sv):
            raise ValueError(
                f"tag {self.tag!r} needs directions ({su}, {sv})")
        if self.first.chart != self.second.chart:
            raise ChartMismatch("sector charts differ")

    @property
    def chart(self) -> str:
        return self.first.chart

    def contains(self, p: Point2) -> bool:
        if p.chart != self.chart:
            raise ChartMismatch(
                f"point in chart {p.chart!r}, region in {self.chart!r}")
        return bool(self.mask(p.z, p.w))

    def mask(self, u, v):
        """Vectorized membership on coordinate arrays."""
        ok = self.first.contains(u) & self.second.contains(v)
        if self.power_cap is not None:
            ok = ok & (np.abs(u) ** (self.power_cap + 1) > np.abs(v))
        return ok


@dataclass(frozen=True)
class UNeighborhood:
    """Origin bidisk with the cusp constraint |w| < |z|^M.

    The full-coverage domain the CLI scan reports on; not one of the four
    tagged regions.
    """

    epsilon: float
    M: int

    def mask(self, z, w):
        az = np.abs(z)
        aw = np.abs(w)
        return (az < self.epsilon) & (aw < self.epsilon) & (aw < az**self.M)

    def contains(self, p: Point2) -> bool:
        if p.chart != ORIGIN:
            raise ChartMismatch("U-neighborhood lives in the origin chart")
        return bool(self.mask(p.z, p.w))


def make_regions(radius: float, chart: str = INFINITY,
                 opening: float = DEFAULT_OPENING,
                 power_cap: int | None = None) -> dict[str, ProductRegion]:
    """The four tagged product regions sharing one radius and opening."""
    out = {}
    for tag, (su, sv) in TAG_SIGNS.items():
        out[tag] = ProductRegion(
            Sector(radius, opening, su, chart),
            Sector(radius, opening, sv, chart),
            tag,
            power_cap,
        )
    return out


def _angular_distance(theta: float, center: float) -> float:
    d = (theta - center + np.pi) % (2 * np.pi) - np.pi
    return abs(d)


def classify(p: Point2, regions: dict[str, ProductRegion]) -> str | None:
    """Tag of the region containing p, or None (axes, gaps, out of range).

    Overlapping matches are broken toward the region whose sector centers
    are angularly nearest; remaining ties fall back to the fixed order
    i, o, a, b.
    """
    matches = [tag for tag in TAG_ORDER if regions[tag].contains(p)]
    if not matches:
        return None
    if len(matches) == 1:
        return matches[0]
    tu = float(np.angle(complex(p.z)))
    tv = float(np.angle(complex(p.w)))

    def score(tag: str) -> tuple[float, int]:
        r = regions[tag]
        d = _angular_distance(tu, r.first.center) + _angular_distance(
            tv, r.second.center)
        return (d, TAG_ORDER.index(tag))

    return min(matches, key=score)


def choose_radius(G: SkewGerm2D) -> float:
    """Smallest candidate radius whose regions pass a sampled margin test.

    The incoming region must map one step forward with margin at least
    RADIUS_MARGIN at every sample; the outgoing region must do the same one
    step backward. Samples are drawn from the interior band the samplers
    use, so a unit translation cannot produce false boundary failures: the
    unit-square points are drawn once, and every candidate and tag maps
    them as region_points(region, RADIUS_SAMPLES, seed=0) would.
    """
    if G.chart != INFINITY:
        raise ChartMismatch("choose_radius works in the infinity chart")
    pts = low_discrepancy(RADIUS_SAMPLES, 4, seed=0)
    for R in RADIUS_CANDIDATES:
        regions = make_regions(float(R), INFINITY)
        ok = True
        for tag, backward in (("i", False), ("o", True)):
            reg = regions[tag]
            u = sector_values(reg.first, pts[:, 0], pts[:, 1])
            v = sector_values(reg.second, pts[:, 2], pts[:, 3])
            try:
                if backward:
                    u1, v1 = G.local_inverse(
                        Point2(u, v, INFINITY)).as_tuple()
                else:
                    u1 = G.first(u)
                    v1 = G.fiber(u, v)
            except (NewtonDiverged, NonFiniteValue):
                ok = False
                break
            m = np.minimum(reg.first.margin(u1), reg.second.margin(v1))
            if not np.all(m >= RADIUS_MARGIN):
                ok = False
                break
        if ok:
            return float(R)
    raise NoValidRadius(
        f"no candidate radius up to {RADIUS_CANDIDATES[-1]} kept its "
        f"regions invariant with margin {RADIUS_MARGIN}")
