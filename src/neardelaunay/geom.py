"""Planar geometric primitives and predicates.

Sign predicates (`orientation`, `in_circumcircle`) use a floating-point fast
path with a conservative error bound and fall back to exact rational
arithmetic when the result is too close to zero to trust.  Their array forms
(`orientations`, `in_circles`) and the one-triangle scan
(`inside_circumcircle`) evaluate the same doubles with the same filter and
hand each undecided entry to the scalar predicate, so this module is the one
home of every filter and its bound.  Everything else
(metric-style quantities) is plain double precision.

Angles are always unsigned values in (0, pi).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegeneratePoints,
    DegenerateTriangle,
    GeneralPositionViolated,
    InvalidScale,
    NearDelaunayError,
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


def separates(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff c and d lie strictly on opposite sides of the line through a
    and b: their exact orientations against a -> b differ and neither is
    collinear."""
    side_c, side_d = orientation(a, b, c), orientation(a, b, d)
    return side_c is not side_d and Orientation.COLLINEAR not in (side_c, side_d)


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


def _incircle_det_exact(a: Point, b: Point, c: Point, d: Point) -> Fraction:
    ax, ay = Fraction(a[0]) - Fraction(d[0]), Fraction(a[1]) - Fraction(d[1])
    bx, by = Fraction(b[0]) - Fraction(d[0]), Fraction(b[1]) - Fraction(d[1])
    cx, cy = Fraction(c[0]) - Fraction(d[0]), Fraction(c[1]) - Fraction(d[1])
    return (
        (ax * ax + ay * ay) * (bx * cy - cx * by)
        + (bx * bx + by * by) * (cx * ay - ax * cy)
        + (cx * cx + cy * cy) * (ax * by - bx * ay)
    )


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
        exact = _incircle_det_exact(a, b, c, d)
        if exact > 0:
            sign = 1
        elif exact < 0:
            sign = -1
        else:
            sign = 0
    # Positive determinant means "inside" for a CCW triple.
    return sign == orient.value and sign != 0


def inside_circumcircle(points: Sequence[Point], tri) -> list[int]:
    """Ascending indices of the points strictly inside the circle through
    the three points that ``tri`` indexes, each as :func:`in_circumcircle`
    decides it.

    The triangle's turn is decided once, and each point's determinant and
    permanent pass :func:`in_circumcircle`'s own filter; a point it leaves
    undecided, an overflowed NaN determinant included, goes to
    :func:`in_circumcircle` itself.  Raises DegenerateTriangle for collinear
    corners when another point exists."""
    i, j, k = tri
    a, b, c = points[i], points[j], points[k]
    turn = orientation(a, b, c)
    if turn is Orientation.COLLINEAR:  # raises at the first other point
        return [m for m, d in enumerate(points) if m not in tri and in_circumcircle(a, b, c, d)]
    ccw = turn is Orientation.CCW
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    found = []
    for m, d in enumerate(points):
        if m == i or m == j or m == k:
            continue
        det, permanent = _incircle_det(ax, ay, bx, by, cx, cy, d[0], d[1])
        if abs(det) > _INCIRCLE_BOUND * permanent:
            if (det > 0.0) is ccw:
                found.append(m)
        elif in_circumcircle(a, b, c, d):
            found.append(m)
    return found


@np.errstate(over="ignore", invalid="ignore")  # an overflowed det is left undecided
def orientations(xy: np.ndarray, a, b, c) -> np.ndarray:
    """``orientation(xy[a], xy[b], xy[c]).value`` for each entry of the index
    arrays a, b and c (n x 2 coordinates, indices of one shape), as int8.

    The doubles are the scalar's, and so are the filter's decisions: the
    early return where detleft and detright have opposite signs, and
    otherwise the bound on |det| against detsum = |detleft| + |detright|.
    An entry decided by neither, such as one whose products overflow to a
    NaN det, calls the scalar, and only those do."""
    x, y = xy[:, 0], xy[:, 1]
    detleft = (x[b] - x[a]) * (y[c] - y[a])
    detright = (y[b] - y[a]) * (x[c] - x[a])
    det = detleft - detright
    early = (detleft > 0.0) & (detright <= 0.0) | (detleft < 0.0) & (detright >= 0.0)
    sure = early | (np.abs(det) > _CCW_BOUND * (np.abs(detleft) + np.abs(detright)))
    sign = np.where(sure, np.sign(det), 0.0).astype(np.int8)
    for i in np.flatnonzero(~sure):
        sign.flat[i] = orientation(*(xy[v.flat[i]].tolist() for v in (a, b, c))).value
    return sign


@np.errstate(over="ignore", invalid="ignore")  # an overflowed det is left undecided
def in_circles(xy: np.ndarray, abc: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``in_circumcircle(xy[a], xy[b], xy[c], xy[e])`` for each row (a, b, c)
    of the T x 3 index array abc against each entry e of the same row of d
    (T x K, or 1 x K for the same points in every row), False where e is a,
    b or c.

    Each row's turn comes from :func:`orientations`, and the determinant and
    permanent are :func:`_incircle_det`'s own expression on arrays, so every
    double and every decision of the filter is the scalar's.  A pair on a
    collinear row or with an undecided determinant, a NaN one from an
    overflow included, goes to the scalar predicate, which raises
    DegenerateTriangle for the former."""
    turn = orientations(xy, *abc.T)[:, None]
    d = np.broadcast_to(d, (len(abc), d.shape[1]))
    det, permanent = _incircle_det(*xy[abc].reshape(-1, 6).T[:, :, None], xy[d, 0], xy[d, 1])
    sure = (np.abs(det) > _INCIRCLE_BOUND * permanent) & (turn != 0)
    inside = sure & ((det > 0.0) == (turn > 0))
    other = (d != abc[:, :1]) & (d != abc[:, 1:2]) & (d != abc[:, 2:])
    for t, k in zip(*np.nonzero(other & ~sure)):
        inside[t, k] = in_circumcircle(*(xy[v].tolist() for v in (*abc[t], d[t, k])))
    return inside


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

    Construction checks exactly two finite numbers per point, size (>= 3)
    and duplicates.
    Near-degeneracy (collinear triples / cocircular quadruples) is checked by
    :func:`validate_general_position`, which operations that require general
    position call for themselves.
    """

    __slots__ = ("points", "_gp_guard", "_hull", "_delaunay")

    def __init__(self, points: Iterable[Sequence[float]]):
        pts = []
        for p in points:
            try:
                if len(p) != 2:
                    raise ValueError
                x, y = float(p[0]), float(p[1])
            except (IndexError, KeyError, TypeError, ValueError, OverflowError):
                raise NearDelaunayError(f"point {p!r} needs two numbers") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise NearDelaunayError(f"non-finite coordinate {(x, y)!r}")
            pts.append(Point(x, y))
        if len(pts) < 3:
            raise NearDelaunayError(f"need at least 3 points, got {len(pts)}")
        if len(set(pts)) != len(pts):
            raise DegeneratePoints("duplicate points")
        self.points: tuple[Point, ...] = tuple(pts)
        self._gp_guard = -math.inf  # below every valid guard: not validated
        self._hull: tuple[int, ...] | None = None
        self._delaunay = None  # built and kept by delaunay.delaunay

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


# General position: one scan of the lexicographic triple table.
#
# The table is built in blocks of whole pairs (a, b), about _GP_BLOCK
# triples (a, b, x) with x > b each.  Every triple gets the collinear test;
# the first block with an offending triple holds the first one, named at
# once.  The same triples give each pair's keys for the cocircular filter.
#
# Identity.  For a < b and a point x write u = a - x, v = b - x,
#   X_x = u x v,  D_x = u . v,  p_x = |u| |v| = sqrt(X_x^2 + D_x^2),
# so D_x + i X_x = p_x e^(i theta_x), theta_x the signed angle axb.  Then
#   incircle(a, b, c, d) = -(X_c D_d - D_c X_d) = -p_c p_d sin(theta_c - theta_d).
# Proof: read points as complex numbers, where Im(conj(s) t) = s x t, so
# w_x = D_x + i X_x = conj(a - x)(b - x) and the middle term is
# Im(conj(w_c) w_d).  Both sides are translation invariant; with d = 0,
#   conj(w_c) w_d = (a - c) conj(b - c) conj(a) b = (|a|^2 - c conj(a)) (|b|^2 - b conj(c)),
# whose imaginary part is |a|^2 (b x c) + |b|^2 (c x a) + |c|^2 (a x b), the
# in-circle determinant with origin d.  With kappa_x = theta_x mod pi,
# |det| = p_c p_d sin(delta), delta the distance of kappa_c and kappa_d on a
# circle of length pi, at most pi / 2, where sin(delta) >= 2 delta / pi.
#
# Bound.  A quadruple is flagged when |det~| <= guard l2~^2 in floats, with
# l2~ <= S, the largest float squared distance of the set.  Evaluated as it
# is, det~ errs by at most about 30 eps D^4 (Shewchuk's in-circle bound,
# 10 eps times a permanent of at most 3 D^4), and D^2 <= S (1 + 5 eps), so
# a flagged quadruple has |det| <= G = S^2 (guard + 64 eps), times a factor
# 1 + 64 eps that also covers the roundings of guard l2 l2, of p_x^2 from the
# float squared distances and of the radius below.
#
# Window.  Flagged gives delta <= pi G / (2 p_c p_d) <= r_c + r_d with
# r_x = pi G / (4 p_x^2) (AM-GM: 2 / (p_c p_d) <= 1 / p_c^2 + 1 / p_d^2), plus
# _KEY_SLACK per key for the error of the float kappa_x (u and v round to
# within eps per coordinate, so (D_x, X_x) moves by under 6 eps p_x, and
# atan2 adds a few ulp) and of the distance test.  So the pair lies within
# 2 r of the key with the larger radius: each key searches that window among
# its own pair's sorted keys, wrapping at 0 = pi, and keeps the pairs it
# outranks whose keys lie within r_c + r_d.  Only these candidates get the
# float test above, with the origin at the highest index as before, so
# every flagged quadruple is found and the bits of each test are unchanged.
# Keys sort as kappa + 4 p, p the pair's number in its block, so a pair's
# keys lie in [4p, 4p + pi]; below 2^16 (_GP_BLOCK <= 2^13) those sums and
# the window ends round by at most 2^-38 each, which _OFFSET_SLACK covers.
# The analysis assumes no underflow or overflow.  validate_general_position
# first scales the coordinates by the power of two that brings the largest
# |coordinate| into [1/2, 1), which changes no test's outcome (it is exact
# while no coordinate becomes subnormal).  Then S <= 8, and S < 2^-400 puts
# every point on one line parallel to an axis (the coordinates within
# 2^-200 of one in [1/2, 1) are equal), so triple (0, 1, 2) is flagged
# before any quadruple is looked at.

# Triples per block of the triple table, and window entries per chunk of
# the candidate search; together they bound the scan's memory.
_GP_BLOCK = 8192
_GP_CHUNK = 1 << 16
_KEY_SLACK = 64 * _EPS
_OFFSET_SLACK = 2.0**-33


def _runs(count: np.ndarray, limit: int):
    """Runs of consecutive items whose counts sum to at most `limit`, or
    one larger item: per run its first and end item, and per unit of its
    counts the unit's item (from 0 in the run) and its rank in that item."""
    end = np.cumsum(count)
    i = 0
    while i < len(count):
        done = end[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(end, done + limit, "right")))
        size = count[i:j]
        item = np.repeat(np.arange(j - i), size)
        yield i, j, item, np.arange(len(item)) - (np.cumsum(size) - size)[item]
        i = j


def _triple_blocks(n: int):
    """The triples a < b < c of range(n) in lexicographic order, in blocks
    of whole pairs (a, b) of about _GP_BLOCK triples: per block the index
    arrays a, b and c and each triple's pair number within the block."""
    a, b = np.triu_indices(n, 1)
    count = n - 1 - b
    has = count > 0
    a, b, count = a[has], b[has], count[has]
    for lo, hi, pair, step in _runs(count, _GP_BLOCK):
        b_pair = b[lo:hi][pair]
        yield a[lo:hi][pair], b_pair, b_pair + 1 + step, pair


def _collinear(coords: np.ndarray, sq: np.ndarray, a, b, c, guard: float) -> np.ndarray:
    """Mask of the triples a < b < c (index arrays) that are near-collinear."""
    x, y = coords[:, 0], coords[:, 1]
    det = (x[b] - x[a]) * (y[c] - y[a]) - (y[b] - y[a]) * (x[c] - x[a])
    l2 = np.maximum(sq[a, b], np.maximum(sq[a, c], sq[b, c]))
    return np.abs(det) <= guard * l2


def _cocircular(coords: np.ndarray, sq: np.ndarray, quads: np.ndarray, guard: float) -> np.ndarray:
    """Mask of the quadruples a < b < c < d (rows of a 4 x k array) that are
    near-cocircular: the in-circle determinant with origin d against the
    longest of their six edges."""
    a, b, c, d = quads
    v = coords[quads[:3]] - coords[d]
    lift = (v**2).sum(2)
    (ax, bx, cx), (ay, by, cy) = v[:, :, 0], v[:, :, 1]
    det = (
        lift[0] * (bx * cy - cx * by)
        + lift[1] * (cx * ay - ax * cy)
        + lift[2] * (ax * by - bx * ay)
    )
    l2 = np.maximum(
        np.maximum(np.maximum(sq[a, b], sq[a, c]), np.maximum(sq[b, c], sq[a, d])),
        np.maximum(sq[b, d], sq[c, d]),
    )
    return np.abs(det) <= guard * l2 * l2


def _window_scale(sq: np.ndarray, guard: float) -> float:
    """pi G / 4 of the comment above: r_x is this over p_x^2, plus slack."""
    s = float(sq.max())
    return math.pi / 4.0 * s * s * (guard + 64 * _EPS) * (1.0 + 64 * _EPS)


def _cocircular_candidates(coords: np.ndarray, sq: np.ndarray, block, scale: float):
    """Chunks (4 x k arrays, columns a < b < c < d) that hold every
    quadruple the cocircular test can flag among those whose two smallest
    indices are one of the block's pairs (see the comment above)."""
    a, b, c, pair = block
    x, y = coords[:, 0], coords[:, 1]
    ux, uy, vx, vy = x[a] - x[c], y[a] - y[c], x[b] - x[c], y[b] - y[c]
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    key = np.arctan2(np.abs(cross), np.where(cross < 0.0, -dot, dot))
    with np.errstate(divide="ignore"):  # an underflowed product: whole pair
        radius = scale / (sq[a, c] * sq[b, c]) + _KEY_SLACK
    # Sorting keeps each pair's triples in their place, so a, b and pair
    # need no reordering.
    at = key + 4.0 * pair
    order = np.argsort(at)
    at, key, radius, c = at[order], key[order], radius[order], c[order]
    size = np.bincount(pair)
    stop = np.cumsum(size)
    start = stop - size
    reach = 2.0 * radius + _OFFSET_SLACK
    # A window holds another key iff it holds a neighbour round the pair's
    # circle, on which the first key follows the last across 0 = pi.
    gap = np.empty_like(key)
    gap[1:] = key[1:] - key[:-1]
    gap[start] = key[start] + math.pi - key[stop - 1]
    gap_next = np.empty_like(key)
    gap_next[:-1] = gap[1:]
    gap_next[stop - 1] = gap[start]
    live = np.flatnonzero(np.minimum(gap, gap_next) <= reach)
    first, size = start[pair[live]], size[pair[live]]
    lo_key, hi_key = key[live] - reach[live], key[live] + reach[live]
    wraps = (lo_key < 0.0) | (hi_key > math.pi)
    lo_key = np.where(lo_key < 0.0, lo_key + math.pi, lo_key)
    hi_key = np.where(hi_key > math.pi, hi_key - math.pi, hi_key)
    offset = 4.0 * pair[live]
    lo = np.searchsorted(at, lo_key + offset, "left")
    hi = np.searchsorted(at, hi_key + offset, "right")
    whole = reach[live] >= math.pi / 2.0
    lo = np.where(whole, first, lo)
    count = np.where(whole, size, np.minimum(hi - lo + np.where(wraps, size, 0), size))
    for i, _, item, step in _runs(count, _GP_CHUNK):
        t = i + item
        src = live[t]
        dst = first[t] + (lo[t] - first[t] + step) % size[t]
        apart = np.abs(key[src] - key[dst])
        apart = np.minimum(apart, math.pi - apart)
        r_src, r_dst = radius[src], radius[dst]
        keep = ((r_src > r_dst) | ((r_src == r_dst) & (src < dst))) & (apart <= r_src + r_dst)
        src, dst = src[keep], dst[keep]
        yield np.stack((a[src], b[src], np.minimum(c[src], c[dst]), np.maximum(c[src], c[dst])))


def _first_cocircular(coords: np.ndarray, sq: np.ndarray, block, scale: float, guard: float):
    """The lexicographically first near-cocircular quadruple whose two
    smallest indices are one of the block's pairs, or None."""
    first = None
    for quads in _cocircular_candidates(coords, sq, block, scale):
        bad = quads[:, _cocircular(coords, sq, quads, guard)]
        if bad.shape[1]:
            quad = tuple(bad[:, np.lexsort(bad[::-1])[0]].tolist())
            first = quad if first is None else min(first, quad)
    return first


def _violation(tup, what: str, guard: float) -> GeneralPositionViolated:
    return GeneralPositionViolated(
        f"points {', '.join(map(str, tup))} are {what} (within guard {guard:g})"
    )


def validate_general_position(ps: PointSet, guard: float = DEGENERACY_GUARD) -> None:
    """Reject point sets with near-collinear triples or near-cocircular quadruples.

    `guard` is a relative threshold, finite and >= 0: a triple is degenerate
    when its orientation determinant is at most guard * L^2 (L the longest
    involved edge), a quadruple when its circle determinant is at most
    guard * L^4; guard 0 rejects exact degeneracies only.
    GeneralPositionViolated names the lexicographically first offending
    triple, or else the first offending quadruple.  Triples are tested one
    by one; quadruples only where a sorted-angle filter (comment above)
    cannot rule them out, so the scan takes about O(n^3 log n) time.
    """
    if not (math.isfinite(guard) and guard >= 0.0):
        raise NearDelaunayError(f"guard must be finite and non-negative, got {guard!r}")
    if ps._gp_guard >= guard:
        return
    coords = np.asarray(ps.points, dtype=np.float64)
    # by a power of two, exactly: see the window analysis above _GP_BLOCK
    coords = np.ldexp(coords, -math.frexp(float(np.abs(coords).max()))[1])
    sq = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(2)
    scale = _window_scale(sq, guard)
    quad = None
    for block in _triple_blocks(len(coords)):
        a, b, c, _ = block
        bad = np.flatnonzero(_collinear(coords, sq, a, b, c, guard))
        if len(bad):
            i = bad[0]
            raise _violation((a[i], b[i], c[i]), "collinear", guard)
        if quad is None:
            quad = _first_cocircular(coords, sq, block, scale, guard)
    if quad is not None:
        raise _violation(quad, "cocircular", guard)
    ps._gp_guard = guard


def is_general_position(ps: PointSet, guard: float = DEGENERACY_GUARD) -> bool:
    try:
        validate_general_position(ps, guard)
    except GeneralPositionViolated:
        return False
    return True


def polygon_area(polygon: Sequence[Point]) -> float:
    """Absolute shoelace area."""
    s = 0.0
    for i, (x0, y0) in enumerate(polygon):
        x1, y1 = polygon[(i + 1) % len(polygon)]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0
