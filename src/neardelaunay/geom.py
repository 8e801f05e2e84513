"""Planar geometric primitives and predicates.

Sign predicates (`orientation`, `in_circumcircle`) use a floating-point fast
path with a conservative error bound and fall back to exact rational
arithmetic when the result is too close to zero to trust.  Everything else
(metric-style quantities) is plain double precision.

Angles are always unsigned values in (0, pi).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegeneratePoints,
    DegenerateTriangle,
    GeneralPositionViolated,
    InvalidScale,
    NotAChord,
)


class Point(NamedTuple):
    x: float
    y: float


class Circle(NamedTuple):
    center: Point
    radius: float


class Segment(NamedTuple):
    a: Point
    b: Point


class Orientation(Enum):
    CCW = 1
    COLLINEAR = 0
    CW = -1


class SegmentSide(Enum):
    """Which of the two circular segments cut off by a chord is meant."""

    CONTAINS_CENTER = "contains_center"
    OPPOSITE_CENTER = "opposite_center"


# Error-bound coefficients for the floating-point filters (double precision,
# machine epsilon 2^-53); below these bounds the sign is recomputed exactly.
_EPS = 1.1102230246251565e-16
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS

# Relative determinant threshold below which validation treats a point set
# as degenerate (see validate_general_position).
DEGENERACY_GUARD = 1e-12


def _orient_det_exact(a: Point, b: Point, c: Point) -> Fraction:
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Sign of twice the signed area of triangle abc (CCW positive).

    The sign is reliable: when the float evaluation is within its error
    bound the determinant is recomputed exactly.
    """
    detleft = (b[0] - a[0]) * (c[1] - a[1])
    detright = (b[1] - a[1]) * (c[0] - a[0])
    det = detleft - detright
    if detleft > 0.0:
        if detright <= 0.0:
            return Orientation.CCW
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright >= 0.0:
            return Orientation.CW
        detsum = -detleft - detright
    else:
        detsum = abs(detright)
    if abs(det) > _CCW_BOUND * detsum:
        return Orientation.CCW if det > 0.0 else Orientation.CW
    exact = _orient_det_exact(a, b, c)
    if exact > 0:
        return Orientation.CCW
    if exact < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def _incircle_det(ax, ay, bx, by, cx, cy, dx, dy):
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    permanent = (
        alift * (abs(bdx * cdy) + abs(cdx * bdy))
        + blift * (abs(cdx * ady) + abs(adx * cdy))
        + clift * (abs(adx * bdy) + abs(bdx * ady))
    )
    return det, permanent


def in_circumcircle(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff d lies strictly inside the circle through a, b, c.

    The result does not depend on the order (or the winding) of a, b, c.
    Raises DegenerateTriangle when a, b, c are collinear.
    """
    orient = orientation(a, b, c)
    if orient is Orientation.COLLINEAR:
        raise DegenerateTriangle(f"collinear points {a}, {b}, {c}")
    det, permanent = _incircle_det(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])
    if abs(det) > _INCIRCLE_BOUND * permanent:
        sign = 1 if det > 0.0 else -1
    else:
        ax, ay = Fraction(a[0]) - Fraction(d[0]), Fraction(a[1]) - Fraction(d[1])
        bx, by = Fraction(b[0]) - Fraction(d[0]), Fraction(b[1]) - Fraction(d[1])
        cx, cy = Fraction(c[0]) - Fraction(d[0]), Fraction(c[1]) - Fraction(d[1])
        exact = (
            (ax * ax + ay * ay) * (bx * cy - cx * by)
            + (bx * bx + by * by) * (cx * ay - ax * cy)
            + (cx * cx + cy * cy) * (ax * by - bx * ay)
        )
        if exact > 0:
            sign = 1
        elif exact < 0:
            sign = -1
        else:
            sign = 0
    # Positive determinant means "inside" for a CCW triple.
    return sign == orient.value and sign != 0


def circumcircle(a: Point, b: Point, c: Point) -> Circle:
    """Circle through three non-collinear points.

    Computed relative to `a` for conditioning.
    """
    if orientation(a, b, c) is Orientation.COLLINEAR:
        raise DegenerateTriangle(f"collinear points {a}, {b}, {c}")
    bx, by = b[0] - a[0], b[1] - a[1]
    cx, cy = c[0] - a[0], c[1] - a[1]
    d = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    center = Point(a[0] + ux, a[1] + uy)
    radius = math.hypot(ux, uy)
    return Circle(center, radius)


def inscribed_circle(a: Point, b: Point, c: Point) -> Circle:
    """Incircle of a triangle: side-length-weighted vertex average, r = area/s."""
    if orientation(a, b, c) is Orientation.COLLINEAR:
        raise DegenerateTriangle(f"collinear points {a}, {b}, {c}")
    la = math.dist(b, c)
    lb = math.dist(c, a)
    lc = math.dist(a, b)
    perim = la + lb + lc
    cx = (la * a[0] + lb * b[0] + lc * c[0]) / perim
    cy = (la * a[1] + lb * b[1] + lc * c[1]) / perim
    area = abs(
        (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    ) / 2.0
    return Circle(Point(cx, cy), area / (perim / 2.0))


def angle_at(apex: Point, p1: Point, p2: Point) -> float:
    """Unsigned angle in (0, pi) between rays apex->p1 and apex->p2."""
    ux, uy = p1[0] - apex[0], p1[1] - apex[1]
    vx, vy = p2[0] - apex[0], p2[1] - apex[1]
    if (ux == 0.0 and uy == 0.0) or (vx == 0.0 and vy == 0.0):
        raise DegeneratePoints(f"coincident points at apex {apex}")
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def circular_segment_area(circle: Circle, chord: Segment, side: SegmentSide) -> float:
    """Area of the circular segment cut off by a chord, on the requested side.

    The minor segment (the side away from the center) is r^2 (phi - sin phi
    cos phi) with phi the half central angle; the two sides sum to the disk.
    """
    center, r = circle
    for end in (chord.a, chord.b):
        if abs(math.dist(center, end) - r) > 1e-9 * max(r, 1e-300):
            raise NotAChord(f"{end} is not on circle {circle}")
    half = math.dist(chord.a, chord.b) / 2.0
    phi = math.asin(min(1.0, half / r))
    minor = r * r * (phi - math.sin(phi) * math.cos(phi))
    if side is SegmentSide.OPPOSITE_CENTER:
        return minor
    return math.pi * r * r - minor


def dist_point_segment(x: Point, a: Point, b: Point) -> float:
    """Distance from x to the closed segment ab."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    t = ((x[0] - a[0]) * dx + (x[1] - a[1]) * dy) / (dx * dx + dy * dy)
    t = max(0.0, min(1.0, t))
    return math.hypot(x[0] - a[0] - t * dx, x[1] - a[1] - t * dy)


def chord_overlap_length(circle: Circle, seg: Segment) -> float:
    """Length of the intersection of the closed disk with the segment."""
    (cx, cy), r = circle
    ax, ay = seg.a
    bx, by = seg.b
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    if dd == 0.0:
        raise DegeneratePoints("zero-length segment")
    t0 = ((cx - ax) * dx + (cy - ay) * dy) / dd
    fx, fy = ax + t0 * dx - cx, ay + t0 * dy - cy
    h2 = r * r - (fx * fx + fy * fy)
    if h2 <= 0.0:
        return 0.0
    half = math.sqrt(h2 / dd)
    lo = max(0.0, t0 - half)
    hi = min(1.0, t0 + half)
    if hi <= lo:
        return 0.0
    return (hi - lo) * math.sqrt(dd)


class PointSet:
    """An ordered planar point set; indices are stable identities.

    Construction checks finiteness, size (>= 3) and exact duplicates.
    Near-degeneracy (collinear triples / cocircular quadruples) is checked by
    :func:`validate_general_position`, which operations that require general
    position call for themselves.
    """

    __slots__ = ("points", "_gp_guard", "_hull")

    def __init__(self, points: Iterable[Sequence[float]]):
        pts = []
        for p in points:
            x, y = float(p[0]), float(p[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite coordinate {p!r}")
            pts.append(Point(x, y))
        if len(pts) < 3:
            raise ValueError(f"need at least 3 points, got {len(pts)}")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points")
        self.points: tuple[Point, ...] = tuple(pts)
        self._gp_guard = 0.0
        self._hull: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} points)"

    def hull(self) -> tuple[int, ...]:
        """Indices of the convex hull in counterclockwise order."""
        if self._hull is None:
            self._hull = convex_hull(self.points)
        return self._hull


def convex_hull(points: Sequence[Point]) -> tuple[int, ...]:
    """Monotone-chain convex hull, returning CCW point indices."""
    order = sorted(range(len(points)), key=lambda i: points[i])

    def build(idx):
        chain = []
        for i in idx:
            while len(chain) >= 2 and orientation(
                points[chain[-2]], points[chain[-1]], points[i]
            ) is not Orientation.CCW:
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    return tuple(lower[:-1] + upper[:-1])


def similarity_transform(
    ps: PointSet,
    rotation: float = 0.0,
    scale: float = 1.0,
    translation: Sequence[float] = (0.0, 0.0),
    reflect: bool = False,
) -> PointSet:
    """Apply reflect (across the x-axis), then rotate, scale and translate."""
    if not (scale > 0.0) or not math.isfinite(scale):
        raise InvalidScale(f"scale must be positive, got {scale}")
    cos_r, sin_r = math.cos(rotation), math.sin(rotation)
    tx, ty = float(translation[0]), float(translation[1])
    out = []
    for x, y in ps:
        if reflect:
            y = -y
        out.append(
            Point(
                scale * (cos_r * x - sin_r * y) + tx,
                scale * (sin_r * x + cos_r * y) + ty,
            )
        )
    return PointSet(out)


def _subsets(n: int, k: int):
    """Index rows of every k-subset of range(n) in `combinations` order, one
    block of O(n^(k-1)) rows per lowest index i: i joined to the last
    C(n-1-i, k-1) (k-1)-subsets of range(1, n), which are those above i."""
    rest = np.fromiter(combinations(range(1, n), k - 1), np.dtype((np.int64, k - 1)))
    for i in range(n - k + 1):
        tail = rest[len(rest) - math.comb(n - 1 - i, k - 1) :]
        yield np.column_stack((np.full(len(tail), i), tail))


def _collinear(p: np.ndarray, guard: float) -> np.ndarray:
    """Mask of the rows of p (rows x 3 x 2) whose triangle is near-collinear."""
    a, b, c = p.swapaxes(0, 1)
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    l2 = np.maximum(
        ((b - a) ** 2).sum(1),
        np.maximum(((c - a) ** 2).sum(1), ((c - b) ** 2).sum(1)),
    )
    return np.abs(det) <= guard * l2


def _cocircular(p: np.ndarray, guard: float) -> np.ndarray:
    """Mask of the rows of p (rows x 4 x 2) whose quadruple is near-cocircular."""
    a, b, c, d = p.swapaxes(0, 1)
    ad, bd, cd = a - d, b - d, c - d
    alift = (ad**2).sum(1)
    blift = (bd**2).sum(1)
    clift = (cd**2).sum(1)
    det = (
        alift * (bd[:, 0] * cd[:, 1] - cd[:, 0] * bd[:, 1])
        + blift * (cd[:, 0] * ad[:, 1] - ad[:, 0] * cd[:, 1])
        + clift * (ad[:, 0] * bd[:, 1] - bd[:, 0] * ad[:, 1])
    )
    l2 = np.zeros(len(p))
    for i in range(4):
        for j in range(i + 1, 4):
            l2 = np.maximum(l2, ((p[:, i] - p[:, j]) ** 2).sum(1))
    return np.abs(det) <= guard * l2 * l2


def validate_general_position(ps: PointSet, guard: float = DEGENERACY_GUARD) -> None:
    """Reject point sets with near-collinear triples or near-cocircular quadruples.

    `guard` is a relative threshold: a triple is degenerate when its
    orientation determinant is at most guard * L^2 (L the longest involved
    edge), a quadruple when its circle determinant is at most guard * L^4.
    All triples are scanned before any quadruple, each in `combinations`
    order; GeneralPositionViolated names the first offending tuple.
    """
    if ps._gp_guard >= guard:
        return
    coords = np.asarray(ps.points, dtype=np.float64)
    scans = ((3, _collinear, "collinear"), (4, _cocircular, "cocircular"))
    for k, degenerate, what in scans:
        for rows in _subsets(len(coords), k):
            bad = rows[degenerate(coords[rows], guard)]
            if len(bad):
                raise GeneralPositionViolated(
                    f"points {', '.join(map(str, bad[0].tolist()))} are {what} "
                    f"(within guard {guard:g})"
                )
    ps._gp_guard = guard


def is_general_position(ps: PointSet, guard: float = DEGENERACY_GUARD) -> bool:
    try:
        validate_general_position(ps, guard)
    except GeneralPositionViolated:
        return False
    return True


def clip_polygon_halfplane(
    polygon: list[Point], n: tuple[float, float], c: float
) -> list[Point]:
    """Clip a polygon against the halfplane n . x <= c (Sutherland-Hodgman step)."""
    if not polygon:
        return []
    out: list[Point] = []
    nx, ny = n
    prev = polygon[-1]
    prev_val = nx * prev[0] + ny * prev[1] - c
    for cur in polygon:
        cur_val = nx * cur[0] + ny * cur[1] - c
        if cur_val <= 0.0:
            if prev_val > 0.0:
                t = prev_val / (prev_val - cur_val)
                out.append(
                    Point(
                        prev[0] + t * (cur[0] - prev[0]),
                        prev[1] + t * (cur[1] - prev[1]),
                    )
                )
            out.append(cur)
        elif prev_val <= 0.0:
            t = prev_val / (prev_val - cur_val)
            out.append(
                Point(
                    prev[0] + t * (cur[0] - prev[0]),
                    prev[1] + t * (cur[1] - prev[1]),
                )
            )
        prev, prev_val = cur, cur_val
    return out


def polygon_area(polygon: Sequence[Point]) -> float:
    """Absolute shoelace area."""
    s = 0.0
    for i, (x0, y0) in enumerate(polygon):
        x1, y1 = polygon[(i + 1) % len(polygon)]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0
