"""Seven element-decomposed scores for how close a triangulation is to Delaunay.

Three decompositions are used:

* quadrilaterals (an interior edge plus its two triangles) -- scored in
  isolation, lower is better, 0 is perfect;
* edges -- scored against every other point, higher is better, pi is
  perfect for the tangent-angle score and 1 for the covered-fraction score;
* triangles -- scored against every other point, higher is better, 1 is
  perfect.

The Delaunay triangulation, and only it, is perfect on every element of
every metric.  All values are invariant under similarity transformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .delaunay import delaunay
from .errors import MismatchedPointSets, NearDelaunayError, SiteOutsideCircle
from .geom import (
    DEGENERACY_GUARD,
    Circle,
    Orientation,
    Point,
    PointSet,
    Segment,
    SegmentSide,
    angle_at,
    chord_overlap_length,
    circular_segment_area,
    circumcircle,
    dist_point_segment as _dist_point_segment,
    in_circles,
    in_circumcircle,
    inscribed_circle,
    inside_circumcircle,
    orientation,
    polygon_area,
)
from .triangulation import Decomposition, Triangulation, elements

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)


class ScoreOrientation(Enum):
    LOWER_BETTER = "lower_better"
    HIGHER_BETTER = "higher_better"


@dataclass(frozen=True, slots=True)
class ElementScore:
    element: tuple
    value: float
    orientation: ScoreOrientation


# --- quadrilateral scores ----------------------------------------------------
# Values of the points u, v of an interior edge and p, q opposite it.


def _opposing_angles_value(pu: Point, pv: Point, pp: Point, pq: Point) -> float:
    """Excess of the two opposing angles over pi (0 when locally Delaunay)."""
    excess = angle_at(pp, pu, pv) + angle_at(pq, pu, pv) - math.pi
    return max(0.0, excess)


def _dual_edge_ratio_value(pu: Point, pv: Point, pp: Point, pq: Point) -> float:
    """Distance between the two circumcenters over the edge length.

    Zero when the quadrilateral is locally Delaunay; otherwise the two
    centers sit in inverted order and their separation measures how far.
    """
    if not in_circumcircle(pu, pv, pp, pq):
        return 0.0
    cp = circumcircle(pu, pv, pp).center
    cq = circumcircle(pu, pv, pq).center
    return math.dist(cp, cq) / math.dist(pu, pv)


def _bisector_halfplane(keep: Point, cut: Point):
    """Halfplane of points closer to `keep` than to `cut`, as n . x <= c."""
    n = (cut[0] - keep[0], cut[1] - keep[1])
    c = (
        cut[0] * cut[0]
        + cut[1] * cut[1]
        - keep[0] * keep[0]
        - keep[1] * keep[1]
    ) / 2.0
    return n, c


def _dual_overlap_area(pu: Point, pv: Point, pp: Point, pq: Point) -> float:
    """Overlap area of the cells of p and q when q lies strictly inside the
    circle through u, v, p.

    The overlap is the set nearer both p and q than both u and v: the
    order-2 Voronoi region of {p, q} among the four points (Lee, "On
    k-nearest neighbor Voronoi diagrams in the plane", 1982), cut out by the
    bisectors of pu, pv, qu and qv.  A point of it on the bisectors of pu
    and qv (or of pv and qu) is as far from all four points, which general
    position rules out, so every corner is a circumcentre of three of them,
    and the region is the polygon of those that lie in it.  All four do:

    * cp, of u, v, p, because q is inside circle uvp;
    * cq, of u, v, q, because p is then inside circle uvq, as p and q lie
      on opposite sides of uv;
    * mu, of u, p, q, and mv, of v, p, q, because v and u lie outside those
      circles.  An edge whose opposite apex is inside its circumcircle has a
      convex quadrilateral (see :func:`~neardelaunay.delaunay._legalize`),
      and as uv is not locally Delaunay, the Delaunay triangulation of the
      four points is the one by the other diagonal, pq, whose triangles
      upq and vpq are empty.

    Consecutive corners of cp, mu, cq, mv share the bisector of pu, qu, qv
    and pv in turn, so that is their order around the region.  The
    shoelace runs in a frame centred on the quadrilateral, for
    conditioning."""
    ox = (pu[0] + pv[0] + pp[0] + pq[0]) / 4.0
    oy = (pu[1] + pv[1] + pp[1] + pq[1]) / 4.0
    u, v, p, q = (Point(w[0] - ox, w[1] - oy) for w in (pu, pv, pp, pq))
    corners = ((u, v, p), (u, p, q), (u, v, q), (v, p, q))
    return polygon_area([circumcircle(*t).center for t in corners])


def _dual_area_overlap_value(pu: Point, pv: Point, pp: Point, pq: Point) -> float:
    """Overlap area of the two opposing local cells over the squared edge length.

    The cell of p is bounded by the bisectors of (p, u) and (p, v); for a
    locally Delaunay quadrilateral it is disjoint from q's cell.  Otherwise
    the overlap is the quadrilateral of the four circumcentres
    (:func:`_dual_overlap_area`).
    """
    if not in_circumcircle(pu, pv, pp, pq):
        return 0.0
    return _dual_overlap_area(pu, pv, pp, pq) / math.dist(pu, pv) ** 2


# --- edge scores -------------------------------------------------------------


def _lens_value(ev: Evaluator, edge: tuple) -> float:
    """Tangent angle of the widest empty lens over the edge, capped at pi.

    Each side contributes pi minus the largest angle the edge subtends from
    a point strictly on that side (pi when the side is empty); by the
    inscribed-angle theorem this is the tangent direction of the largest
    empty arc on that side.
    """
    u, v = edge
    pts = ev.point_set.points
    pu, pv = pts[u], pts[v]
    best = {Orientation.CCW: 0.0, Orientation.CW: 0.0}
    for i, pw in enumerate(pts):
        if i == u or i == v:
            continue
        side = orientation(pu, pv, pw)
        if side is Orientation.COLLINEAR:
            continue
        ang = angle_at(pw, pu, pv)
        if ang > best[side]:
            best[side] = ang
    theta = (math.pi - best[Orientation.CCW]) + (math.pi - best[Orientation.CW])
    return min(math.pi, theta)


def _shrunk_circle_value(ev: Evaluator, edge: tuple) -> float:
    """Largest fraction of the edge covered by an empty circle.

    The best empty circle is centred on the Voronoi diagram, the coverage is
    quasiconvex along its edges (each point of the segment is covered over a
    prefix or a suffix of a Voronoi edge, since the in-circle test is affine
    in the centre, and the segment's endpoints are never strictly inside an
    empty circle), and unbounded edges are dominated by their bounded
    endpoint, so only the maximal circles at Voronoi vertices need testing.
    Those are the circumcircles of the Delaunay triangles, which the
    evaluator builds once, keyed by triangle.

    The circles of the edge's own Delaunay triangles, which pass through
    both ends, go first, and the scan stops once the value is 1.0: the
    largest overlap does not depend on the order, and the value is capped
    at 1.0, so no later circle can change it.
    """
    pts = ev.point_set.points
    dt = ev._delaunay
    if dt is None:
        dt = ev._delaunay = delaunay(ev.point_set)
        ev._circles = {t: circumcircle(*map(pts.__getitem__, t)) for t in dt.triangles}
    u, v = sorted(edge)
    own = [ev._circles[tuple(sorted((u, v, w)))] for w in dt.apexes().get((u, v), ())]
    seg = Segment(pts[edge[0]], pts[edge[1]])
    length = math.dist(seg.a, seg.b)
    best = 0.0
    for circles in (own, ev._circles.values()):
        for circle in circles:
            overlap = chord_overlap_length(circle, seg)
            if overlap > best:
                best = overlap
                if best / length >= 1.0:
                    return 1.0
    return min(1.0, max(0.0, best / length))


# --- triangle scores ---------------------------------------------------------


def _segment_area_on_side(circle: Circle, a: Point, b: Point, side: Orientation) -> float:
    """Area of the circular segment cut by chord ab on the given side of a->b."""
    center_side = orientation(a, b, circle.center)
    if center_side is side:
        kind = SegmentSide.CONTAINS_CENTER
    else:
        kind = SegmentSide.OPPOSITE_CENTER  # includes center-on-chord: halves agree
    return circular_segment_area(circle, Segment(a, b), kind)


def _inside_circumcircles(pts: Sequence[Point], tris) -> list[list[int]]:
    """:func:`~neardelaunay.geom.inside_circumcircle` of each triangle, in
    one scan of :func:`~neardelaunay.geom.in_circles`."""
    tris = np.array(tris, dtype=np.intp).reshape(-1, 3)
    inside = in_circles(np.array(pts, dtype=float), tris, np.arange(len(pts))[None, :])
    found = np.nonzero(inside)[1].tolist()
    ends = np.cumsum(inside.sum(axis=1)).tolist()
    return [found[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _triangular_lens_value(ev: Evaluator, tri: tuple) -> float:
    """Fraction of the circumcircle outside the triangle covered by the three
    largest empty arcs, one per side, from the sites :meth:`Evaluator.inside`
    the circumcircle."""
    pts = ev.point_set.points
    iu, iv, iw = tri
    corners = (pts[iu], pts[iv], pts[iw])
    circ = circumcircle(*corners)
    r2 = circ.radius * circ.radius
    tri_area = polygon_area(corners)
    denom = math.pi * r2 - tri_area
    inside = ev.inside(tri)
    total = 0.0
    for a, b, opposite in ((iu, iv, iw), (iv, iw, iu), (iw, iu, iv)):
        pa, pb, pc = pts[a], pts[b], pts[opposite]
        inner = orientation(pa, pb, pc)
        outer = Orientation.CW if inner is Orientation.CCW else Orientation.CCW
        best_ang = 0.0
        best_pt = None
        for i in inside:
            p = pts[i]
            if orientation(pa, pb, p) is not outer:
                continue
            ang = angle_at(p, pa, pb)
            if ang > best_ang:
                best_ang, best_pt = ang, p
        if best_pt is None:
            total += _segment_area_on_side(circ, pa, pb, outer)
        else:
            arc = circumcircle(pa, pb, best_pt)
            total += _segment_area_on_side(arc, pa, pb, outer)
    return total / denom


# --- local diagram of a circle and its interior sites ------------------------


@dataclass(frozen=True)
class Ellipse:
    """Locus of centers of circles tangent internally to a boundary circle
    and passing through one interior site: foci at the circle center and the
    site, focal-distance sum equal to the circle radius."""

    center: Point
    axis: tuple[float, float]  # unit direction toward the far-from-site vertex
    a: float  # semi-major
    b: float  # semi-minor
    c: float  # focal half-distance
    site: Point

    def point_at(self, theta: float) -> Point:
        ca, sa = math.cos(theta), math.sin(theta)
        ex, ey = self.axis
        return Point(
            self.center[0] + self.a * ca * ex - self.b * sa * ey,
            self.center[1] + self.a * ca * ey + self.b * sa * ex,
        )

    def radius_at(self, theta: float) -> float:
        # distance to the site focus; maximal at theta = 0
        return self.a + self.c * math.cos(theta)


@dataclass(frozen=True)
class EllipticalSegment:
    site: Point
    ellipse: Ellipse
    theta_lo: float
    theta_hi: float


@dataclass(frozen=True)
class StraightSegment:
    sites: tuple[Point, Point]
    a: Point
    b: Point


@dataclass(frozen=True)
class LocalVoronoiDiagram:
    circle: Circle
    sites: tuple[Point, ...]
    segments: tuple[EllipticalSegment | StraightSegment, ...]


def _site_ellipse(circle: Circle, site: Point) -> Ellipse:
    o, big_r = circle
    d = math.dist(o, site)
    center = Point((o[0] + site[0]) / 2.0, (o[1] + site[1]) / 2.0)
    if d > 1e-15 * big_r:
        axis = ((o[0] - site[0]) / d, (o[1] - site[1]) / d)
    else:
        axis = (1.0, 0.0)
    a = big_r / 2.0
    cf = d / 2.0
    return Ellipse(center, axis, a, math.sqrt(max(0.0, a * a - cf * cf)), cf, site)


def _intersect_intervals(xs, ys):
    out = []
    for lo1, hi1 in xs:
        for lo2, hi2 in ys:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                out.append((lo, hi))
    return out


def _ellipse_linear(ell: Ellipse, v) -> tuple[float, float]:
    """(A, B) with v . (x(theta) - center) = A cos(theta) + B sin(theta)."""
    ex, ey = ell.axis
    return ell.a * (v[0] * ex + v[1] * ey), ell.b * (-v[0] * ey + v[1] * ex)


def _cos_sin_roots(big_a: float, big_b: float, big_k: float, slack: float = 0.0):
    """The angles phi - delta, phi + delta where A cos(theta) + B sin(theta) = K,
    or None when |K| >= (1 + slack) * hypot(A, B).  A positive slack keeps a
    tangential root that rounding pushed just past |K| = hypot(A, B)."""
    rad = math.hypot(big_a, big_b)
    if abs(big_k) >= (1.0 + slack) * rad:
        return None
    phi = math.atan2(big_b, big_a)
    delta = math.acos(max(-1.0, min(1.0, big_k / rad)))
    return phi - delta, phi + delta


def _ellipse_halfplane_arcs(ell: Ellipse, n, c):
    """Arcs (in parameter space, within [0, 2pi]) where n . x(theta) <= c."""
    big_a, big_b = _ellipse_linear(ell, n)
    roots = _cos_sin_roots(big_a, big_b, c - (n[0] * ell.center[0] + n[1] * ell.center[1]))
    if roots is None:
        mid = ell.point_at(1.0)  # arbitrary probe
        return [(0.0, TWO_PI)] if n[0] * mid[0] + n[1] * mid[1] <= c else []
    t1, t2 = sorted(r % TWO_PI for r in roots)
    arcs = []
    for lo, hi in ((t1, t2), (t2, t1 + TWO_PI)):
        mid = ell.point_at((lo + hi) / 2.0)
        if n[0] * mid[0] + n[1] * mid[1] <= c:
            if hi <= TWO_PI:
                arcs.append((lo, hi))
            else:  # wraps; split at 2pi
                arcs.append((lo, TWO_PI))
                if hi - TWO_PI > 0.0:
                    arcs.append((0.0, hi - TWO_PI))
    return arcs


def local_voronoi(c: Circle, inside_sites: Sequence[Point]) -> LocalVoronoiDiagram:
    """Locus of centers of maximal circles empty of the sites and contained
    in the given circle: elliptical arcs (circle boundary vs one site) and
    straight bisector pieces (two sites).  Every site is clipped by every
    other, so the sites need not be in general position;
    ``shrunk_circumcircle`` clips by Delaunay neighbours only."""
    return _local_voronoi(c, inside_sites, _every_other(len(inside_sites)))


def _site_distances(c: Circle, sites: Sequence[Point]) -> list[float]:
    """The distance from the circle's centre to each site.  Raises
    SiteOutsideCircle for the first site whose float distance exceeds
    R (1 + 1e-9): the exact in-circle predicate can put a site inside whose
    float distance rounds to R or just above, and its ellipse then
    degenerates (b = 0)."""
    o, big_r = c
    out = []
    for s in sites:
        d = math.dist(o, s)
        if d > big_r * (1.0 + 1e-9):
            raise SiteOutsideCircle(f"site {s} is not inside {c}")
        out.append(d)
    return out


def _every_other(k: int) -> list[list[int]]:
    return [[j for j in range(k) if j != i] for i in range(k)]


def _local_voronoi(c: Circle, inside_sites: Sequence[Point], neighbours) -> LocalVoronoiDiagram:
    """:func:`local_voronoi` with site i clipped only by the sites in
    ``neighbours[i]`` (a symmetric relation), and a straight piece built only
    for a pair i < j with j in ``neighbours[i]``."""
    o, big_r = c
    sites = tuple(Point(float(p[0]), float(p[1])) for p in inside_sites)
    _site_distances(c, sites)
    # Each site's neighbours nearest-first, with their bisector halfplanes: a
    # near site is the likeliest to cut an arc or a bisector to nothing, and
    # the clips below stop once nothing is left.  Clipping intersects
    # intervals with exact max/min, so the order does not change the result.
    clips = [
        [
            (k, *_bisector_halfplane(s, sites[k]))
            for k in sorted(neighbours[i], key=lambda k: math.dist(s, sites[k]))
        ]
        for i, s in enumerate(sites)
    ]
    segments: list[EllipticalSegment | StraightSegment] = []
    ellipses = [_site_ellipse(c, s) for s in sites]
    for i, s in enumerate(sites):
        ell = ellipses[i]
        arcs = [(0.0, TWO_PI)]
        for _, n, cc in clips[i]:
            arcs = _intersect_intervals(arcs, _ellipse_halfplane_arcs(ell, n, cc))
            if not arcs:
                break
        for lo, hi in sorted(arcs):
            segments.append(EllipticalSegment(s, ell, lo, hi))
    for i in range(len(sites)):
        for j in sorted(k for k in neighbours[i] if k > i):
            si, sj = sites[i], sites[j]
            mid = Point((si[0] + sj[0]) / 2.0, (si[1] + sj[1]) / 2.0)
            dx, dy = sj[0] - si[0], sj[1] - si[1]
            norm = math.hypot(dx, dy)
            d = (-dy / norm, dx / norm)
            lo, hi = -math.inf, math.inf
            for k, n, cc in clips[i]:
                if k == j:
                    continue
                a0 = n[0] * mid[0] + n[1] * mid[1] - cc
                a1 = n[0] * d[0] + n[1] * d[1]
                if a1 == 0.0:
                    if a0 > 0.0:
                        lo, hi = 1.0, 0.0
                        break
                    continue
                t = -a0 / a1
                if a1 > 0.0:
                    hi = min(hi, t)
                else:
                    lo = max(lo, t)
                if lo >= hi:
                    break
            if lo >= hi:
                continue
            # keep only the part whose circles fit inside the boundary circle:
            # |x - si| + |x - o| <= R, i.e. x inside the site's ellipse; on the
            # bisector both sites' ellipses cut the same piece
            ell = ellipses[i] if ellipses[i].b > 0.0 else ellipses[j]
            if ell.b == 0.0:
                continue
            ex, ey = ell.axis
            px, py = mid[0] - ell.center[0], mid[1] - ell.center[1]
            p1, p2 = px * ex + py * ey, -px * ey + py * ex
            d1, d2 = d[0] * ex + d[1] * ey, -d[0] * ey + d[1] * ex
            qa = (d1 / ell.a) ** 2 + (d2 / ell.b) ** 2
            qb = 2.0 * (p1 * d1 / ell.a**2 + p2 * d2 / ell.b**2)
            qc = (p1 / ell.a) ** 2 + (p2 / ell.b) ** 2 - 1.0
            disc = qb * qb - 4.0 * qa * qc
            if disc <= 0.0:
                continue
            root = math.sqrt(disc)
            lo = max(lo, (-qb - root) / (2.0 * qa))
            hi = min(hi, (-qb + root) / (2.0 * qa))
            if lo >= hi:
                continue
            segments.append(
                StraightSegment(
                    (si, sj),
                    Point(mid[0] + lo * d[0], mid[1] + lo * d[1]),
                    Point(mid[0] + hi * d[0], mid[1] + hi * d[1]),
                )
            )
    return LocalVoronoiDiagram(c, sites, tuple(segments))


# --- largest contained empty circle ------------------------------------------


def _quadratic_roots(qa: float, qb: float, qc: float) -> list[float]:
    """Real roots of qa t^2 + qb t + qc = 0, plus the vertex -qb / (2 qa), which
    stands in for a double root that rounding pushed off the real line."""
    if qa == 0.0:
        return [-qc / qb] if qb != 0.0 else []
    disc = qb * qb - 4.0 * qa * qc
    roots = [-qb / (2.0 * qa)]
    if disc >= 0.0:
        q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
        roots.append(q / qa)
        if q != 0.0:
            roots.append(qc / q)
    return roots


def _straight_candidates(seg: StraightSegment, sides):
    """(radius, centre) of the circles centred at x(t) = a + t (b - a), t in
    [0, 1], through the site S (radius |x - S|) at t = 0, 1 and wherever the
    distance to a side's line or to a corner equals the radius.  Squared, the
    first is a quadratic in t; the second puts x on the bisector of the
    corner and S, which is linear in t."""
    sa, sb = seg.a, seg.b
    site = seg.sites[0]
    wx, wy = sb[0] - sa[0], sb[1] - sa[1]
    dx, dy = sa[0] - site[0], sa[1] - site[1]
    d0w, d0d0 = dx * wx + dy * wy, dx * dx + dy * dy
    params = [0.0, 1.0]
    for a, b in sides:
        length = math.dist(a, b)
        ux, uy = (b[0] - a[0]) / length, (b[1] - a[1]) / length
        # signed distance of x(t) to the line is al + be t, with n = (-uy, ux)
        al = -uy * (sa[0] - a[0]) + ux * (sa[1] - a[1])
        be = -uy * wx + ux * wy
        uw = ux * wx + uy * wy  # be^2 - |w|^2 = -uw^2
        params.extend(_quadratic_roots(-uw * uw, 2.0 * (al * be - d0w), al * al - d0d0))
        # |x - a|^2 - |x - S|^2 = |sa - a|^2 - |d0|^2 + 2 t (S - a) . w
        den = 2.0 * ((site[0] - a[0]) * wx + (site[1] - a[1]) * wy)
        if den != 0.0:
            params.append((d0d0 - (sa[0] - a[0]) ** 2 - (sa[1] - a[1]) ** 2) / den)
    out = []
    for t in params:
        if 0.0 <= t <= 1.0:
            x = Point(sa[0] + t * wx, sa[1] + t * wy)
            out.append((math.dist(x, site), x))
    return out


def _arc_candidates(seg: EllipticalSegment, sides):
    """(radius, theta) of the circles centred on the arc at its ends and
    wherever the distance to a side's line or to a corner equals the radius
    a + c cos(theta); the centre is ``ell.point_at(theta)``.  The signed line
    distance and the corner's bisector are affine in (cos, sin), so each case
    is one A cos(theta) + B sin(theta) = K."""
    ell = seg.ellipse
    (cx, cy), (sx, sy) = ell.center, seg.site
    equations = []
    for a, b in sides:
        length = math.dist(a, b)
        n = ((a[1] - b[1]) / length, (b[0] - a[0]) / length)
        big_a, big_b = _ellipse_linear(ell, n)
        g0 = n[0] * (cx - a[0]) + n[1] * (cy - a[1])
        for s in (1.0, -1.0):  # n . (x - a) = +r or -r
            equations.append((big_a - s * ell.c, big_b, s * ell.a - g0))
        # |x - a| = |x - S|: (x - center) . (S - a) = (|S - center|^2 - |a - center|^2) / 2
        big_a, big_b = _ellipse_linear(ell, (sx - a[0], sy - a[1]))
        k = ((sx - cx) ** 2 + (sy - cy) ** 2 - (a[0] - cx) ** 2 - (a[1] - cy) ** 2) / 2.0
        equations.append((big_a, big_b, k))
    params = [seg.theta_lo, seg.theta_hi]
    for eq in equations:
        roots = _cos_sin_roots(*eq, slack=1e-12)
        if roots is not None:
            params.extend(
                th for th in (r % TWO_PI for r in roots) if seg.theta_lo <= th <= seg.theta_hi
            )
    return [(ell.radius_at(th), th) for th in params]


# A site less than this relative depth inside the circumcircle makes its
# diagram clip by every other site (see _clip_lists).
_SHALLOW_SITE = 1e-6


def _clip_lists(ps: PointSet, circ: Circle, inside: list[int]) -> list[list[int]]:
    """For each inside site, the inside sites that can bound its region of
    the local diagram, as positions in ``inside``.

    On a set validated at the default guard these are its neighbours in the
    Delaunay triangulation of the whole set, by empty circles (see
    Aurenhammer, "Voronoi diagrams -- a survey of a fundamental geometric
    data structure", 1991).  Let C be the circumcircle and x a centre whose
    circle lies inside C, through site s_i:

    * Every point strictly inside C is an inside site.  So a circle inside C
      that holds no site strictly inside holds no point of the set, and any
      two sites on it form a Delaunay edge (no four points are cocircular).
    * Say site s_k removes x from s_i's region: |x - s_k| < |x - s_i|.  The
      circles through s_i centred on the segment from s_i to x are nested
      in the circle of x, so they stay inside C, and they touch only at s_i.
      The first one to meet a site meets some s_m, before the last one
      (which holds s_k).  It holds no site, so s_i s_m is a Delaunay edge,
      and s_m is strictly inside the circle of x: s_m removes x as well.  Every arc and straight
      piece is therefore cut the same by s_i's neighbours as by every site.
    * On the bisector of s_i and s_j, centres inside s_i's ellipse give
      circles through both inside C.  If s_i s_j is not a Delaunay edge each
      holds a site, so the pair has no piece.  Clipping a piece by s_i's
      neighbours is the growing argument again, since s_i and s_j are the
      same distance from x.

    That is exact arithmetic.  Where a non-neighbour's cut meets an arc or a
    bisector, its circle holds a site, so a neighbour cuts strictly further;
    in floats the two agree while that margin exceeds rounding.  It did not
    in two cases, which are clipped by every other site instead:

    * sets that fail validation at the default guard (they also have no
      Delaunay triangulation here);
    * circles with a site less than ``_SHALLOW_SITE * R`` inside C.  Such a
      site's ellipse is thin (b/a about sqrt(2 depth)).  On nearly
      cocircular sets that pass the guard, neighbour lists dropped or
      changed short straight pieces of circles whose shallowest site was up
      to 4.1e-8 R deep, so the bound keeps a factor of 24.

    Elsewhere the diagrams are checked ``==`` to clipping by every site."""
    o, big_r = circ
    pts = ps.points
    if ps._gp_guard < DEGENERACY_GUARD or any(
        math.dist(o, pts[g]) > (1.0 - _SHALLOW_SITE) * big_r for g in inside
    ):
        return _every_other(len(inside))
    # delaunay(ps) keeps its triangulation on the set; read it back without
    # a call per triangle.
    dt = ps._delaunay if ps._delaunay is not None else delaunay(ps)
    adjacent = dt.neighbours()
    position = {g: i for i, g in enumerate(inside)}
    return [[position[h] for h in adjacent[g] if h in position] for g in inside]


def _shrunk_circumcircle_value(ev: Evaluator, tri: tuple) -> float:
    """Area of the largest empty circle inside the circumcircle that meets
    all three sides, between the inscribed circle (0) and the circumcircle (1).

    The sites are those :meth:`Evaluator.inside` the circumcircle.  Their
    local diagram clips each site by its Delaunay neighbours among them
    (:func:`_clip_lists`)."""
    ps = ev.point_set
    pts = ps.points
    inside = ev.inside(tri)
    if not inside:
        return 1.0
    corners = tuple(pts[i] for i in tri)
    circ = circumcircle(*corners)
    return _largest_contained_circle(
        corners, _local_voronoi(circ, [pts[i] for i in inside], _clip_lists(ps, circ, inside))
    )


def _radius_bound(seg: EllipticalSegment | StraightSegment) -> float:
    """The largest radius of a circle centred on the piece through its site:
    at the farther end of a straight piece (the distance to the site is
    convex along it), a + c max cos(theta) at an end of an arc (its
    [theta_lo, theta_hi] lies in [0, 2pi], where cos falls to pi and rises
    after)."""
    if isinstance(seg, StraightSegment):
        site = seg.sites[0]
        return max(math.dist(seg.a, site), math.dist(seg.b, site))
    top = max(math.cos(seg.theta_lo), math.cos(seg.theta_hi))
    return seg.ellipse.a + seg.ellipse.c * top


def _line_distance(seg: EllipticalSegment | StraightSegment, a: Point, n) -> float:
    """The least distance from the piece to the line through a with unit
    normal n.  The signed distance n . (x - a) is affine along a straight
    piece, and A cos(theta) + B sin(theta) + K0 along an arc, whose extremes
    K0 -+ hypot(A, B) lie at atan2(B, A) + pi and atan2(B, A)."""
    if isinstance(seg, StraightSegment):
        ends = [n[0] * (x[0] - a[0]) + n[1] * (x[1] - a[1]) for x in (seg.a, seg.b)]
    else:
        ell = seg.ellipse
        lo, hi = seg.theta_lo, seg.theta_hi
        big_a, big_b = _ellipse_linear(ell, n)
        k0 = n[0] * (ell.center[0] - a[0]) + n[1] * (ell.center[1] - a[1])
        ends = [big_a * math.cos(th) + big_b * math.sin(th) + k0 for th in (lo, hi)]
        rho, phi = math.hypot(big_a, big_b), math.atan2(big_b, big_a)
        if lo <= phi % TWO_PI <= hi:
            ends.append(k0 + rho)
        if lo <= (phi + math.pi) % TWO_PI <= hi:
            ends.append(k0 - rho)
    low, high = min(ends), max(ends)
    return low if low > 0.0 else max(0.0, -high)


# The screen of _largest_contained_circle skips a piece when its radius bound
# cannot beat the best radius found, or when some side's line lies farther
# from the piece than its radius bound plus the slack: a point is never
# closer to a segment than to the segment's line, so no candidate on the
# piece can pass.  Both tests compare closed forms with the values the full
# search computes at its candidates: a centre from its angle (point_at) or
# its parameter, the radius at it and its distance to each side
# (dist_point_segment), each a few dozen float operations.  The corners, the
# sites and every centre lie within 2R of a corner, so every operand is at
# most S = (largest corner coordinate) + 2R in magnitude, and each operation
# errs by at most about eps S; the whole chain by under 20 eps S.  The
# errors scale with S, not with R: at an offset of 1e7 and R = 1, a centre
# computed from its angle is off by about 1e-9, far more than eps R.
# _SCREEN_MARGIN * S, over a hundred times that bound, is added to every
# radius bound and taken from every line distance, so the screen skips only
# pieces whose candidates the full search would skip or fail as well.
# Visiting pieces by descending bound and candidates by descending radius
# changes which candidates are tested, not the largest radius that passes.
_SCREEN_MARGIN = 1e-12


def _largest_contained_circle(corners, diagram: LocalVoronoiDiagram) -> float:
    """The shrunk_circumcircle value from the local diagram of the
    circumcircle of ``corners``: the largest radius among the incircle and
    the candidate circles within the slack of all three sides."""
    circ = diagram.circle
    big_r = circ.radius
    inc = inscribed_circle(*corners)
    sides = [
        (corners[0], corners[1]),
        (corners[1], corners[2]),
        (corners[2], corners[0]),
    ]
    lines = []
    for a, b in sides:
        length = math.dist(a, b)
        lines.append((a, ((a[1] - b[1]) / length, (b[0] - a[0]) / length)))
    slack = 1e-9 * big_r
    margin = _SCREEN_MARGIN * (max(abs(v) for p in corners for v in p) + 2.0 * big_r)
    best = inc.radius  # the incircle is always empty and meets all three sides
    pieces = sorted(
        ((_radius_bound(seg) + margin, k) for k, seg in enumerate(diagram.segments)),
        reverse=True,
    )
    for bound, k in pieces:
        if bound <= best:
            break
        seg = diagram.segments[k]
        if any(_line_distance(seg, a, n) - margin > bound + slack for a, n in lines):
            continue
        if isinstance(seg, StraightSegment):
            candidates = _straight_candidates(seg, sides)
        else:
            candidates = _arc_candidates(seg, sides)
        candidates.sort(key=lambda rc: rc[0], reverse=True)
        for r, x in candidates:
            if r <= best:
                break
            if isinstance(seg, EllipticalSegment):
                x = seg.ellipse.point_at(x)
            if all(_dist_point_segment(x, a, b) <= r + slack for a, b in sides):
                best = r
                break
    return _radius_fraction(best, inc.radius, big_r)


def _radius_fraction(r: float, r_inc: float, big_r: float) -> float:
    """The shrunk_circumcircle value of a circle of radius r (capped at R):
    (r^2 - r_inc^2) / (R^2 - r_inc^2), clamped to [0, 1].  Every float
    operation in it rounds monotonically, so the value never falls as r
    grows."""
    r = min(r, big_r)
    ri2 = r_inc * r_inc
    return max(0.0, min(1.0, (r * r - ri2) / (big_r * big_r - ri2)))


# The optimistic bound of shrunk_circumcircle.  Let C be the circumcircle
# (centre O, radius R) and d the distance from O to the nearest site s
# inside it.  A circle of centre x and radius r inside C that does not hold
# s strictly has r <= |x - s| <= |x - O| + d <= (R - r) + d, so
# r <= (R + d) / 2.  Every candidate circle of _largest_contained_circle
# is such a circle in exact arithmetic: it lies inside C and passes through
# a site whose region of the local diagram excludes s.  The float search
# departs from that in three ways.  With S = (largest corner coordinate)
# + 2R, which bounds every operand (see _SCREEN_MARGIN):
#
# * a bisector halfplane n . x <= c of two sites (_bisector_halfplane)
#   forms c from squared coordinates, not centred, so c errs by about
#   2 eps S^2 and the clip line moves by about 2 eps S^2 / |n|, at most
#   2 eps S^2 / h for h the least distance between two sites inside.  A
#   centre a distance delta past a bisector is at most 2 delta closer to
#   the far site than to its own, so r grows by at most delta;
# * a straight piece's ends are cut by a site's ellipse, a quadratic
#   conditioned like (a / b)^2, about 1 / (2 depth) for a site depth * R
#   inside C, so r can exceed R by up to about eps S / depth.  Where
#   depth <= 4e-6, 1e-6 S >= 2e-6 R lifts (R + d) / 2 to R, and the bound
#   is 1; elsewhere eps S / depth < 6e-11 S;
# * every other step errs by a few dozen eps S.
#
# The margin is 16 eps S^2 / h + 1e-6 S.  On the test sets r exceeded
# (R + d) / 2 by up to 0.135 times 2 eps S^2 / h (0.066 R at an offset of
# 1e7) and by 1.3e-8 R (at 1e-10 depth, on circles jittered by 3e-10), at
# most 1 / 230 of the margin.  There 1e-6 S alone covers the excess; the
# first term is for sites far closer together than R at large offsets.
# _radius_fraction is monotone in r, so the bound is at least the value
# whenever the widened radius is at least the float search's.
_BOUND_MARGIN = 1e-6


def _shrunk_circumcircle_bound(ev: Evaluator, tri: tuple) -> float:
    """At least the shrunk_circumcircle value of a triangle: 1 when its
    circumcircle holds no site, otherwise the value of a circle of radius
    (R + d) / 2 widened by a margin (see the comment above).  Raises
    SiteOutsideCircle where the value would, so skipping an element on its
    bound never turns an error into a result."""
    pts = ev.point_set.points
    inside = ev.inside(tri)
    if not inside:
        return 1.0
    corners = tuple(pts[i] for i in tri)
    circ = circumcircle(*corners)
    big_r = circ.radius
    sites = [pts[i] for i in inside]
    d = min(_site_distances(circ, sites))
    h = min((math.dist(p, q) for i, p in enumerate(sites) for q in sites[:i]), default=math.inf)
    size = max(abs(v) for p in corners for v in p) + 2.0 * big_r
    margin = _BOUND_MARGIN * size + 16.0 * _EPS * size * size / h
    return _radius_fraction((big_r + d) / 2.0 + margin, inscribed_circle(*corners).radius, big_r)


# --- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One metric: the elements it scores, its direction, its value on every Delaunay
    element, and its uncached value as a function of (evaluator, element).

    ``bound``, where a metric has one, is a cheaper function of (evaluator,
    element) that is never worse than the value: at least the value when
    higher is better, at most it when lower is better.  The sum search
    gathers it by :meth:`Evaluator.values_by_id` and computes values only
    where that bound cannot settle a row.

    ``zero_outside`` marks a quadrilateral metric whose value is exactly 0.0
    when q is not strictly inside the circumcircle of (u, v, p);
    :meth:`Evaluator.values_by_id` settles those elements by one batched
    in-circle screen."""

    name: str
    decomposition: Decomposition
    orientation: ScoreOrientation
    perfect: float
    value: Callable[["Evaluator", tuple], float]
    bound: Callable[["Evaluator", tuple], float] | None = None
    zero_outside: bool = False


def _of_points(value):
    """An element value from the four points of (u, v, p, q)."""
    return lambda ev, quad: value(*map(ev.point_set.points.__getitem__, quad))


_LOWER, _HIGHER = ScoreOrientation.LOWER_BETTER, ScoreOrientation.HIGHER_BETTER
_QUAD, _EDGE, _TRI = Decomposition.QUADRILATERAL, Decomposition.EDGE, Decomposition.TRIANGLE

METRICS = (
    Metric("opposing_angles", _QUAD, _LOWER, 0.0, _of_points(_opposing_angles_value)),
    Metric(
        "dual_edge_ratio", _QUAD, _LOWER, 0.0, _of_points(_dual_edge_ratio_value), zero_outside=True
    ),
    Metric(
        "dual_area_overlap",
        _QUAD,
        _LOWER,
        0.0,
        _of_points(_dual_area_overlap_value),
        zero_outside=True,
    ),
    Metric("lens", _EDGE, _HIGHER, math.pi, _lens_value),
    Metric("shrunk_circle", _EDGE, _HIGHER, 1.0, _shrunk_circle_value),
    Metric("triangular_lens", _TRI, _HIGHER, 1.0, _triangular_lens_value),
    Metric(
        "shrunk_circumcircle",
        _TRI,
        _HIGHER,
        1.0,
        _shrunk_circumcircle_value,
        _shrunk_circumcircle_bound,
    ),
)

# Views of the registry, in its order.
ALL_METRICS = tuple(m.name for m in METRICS)
QUADRILATERAL_METRICS = tuple(m.name for m in METRICS if m.decomposition is _QUAD)
EDGE_METRICS = tuple(m.name for m in METRICS if m.decomposition is _EDGE)
TRIANGLE_METRICS = tuple(m.name for m in METRICS if m.decomposition is _TRI)
PERFECT_VALUE = {m.name: m.perfect for m in METRICS}
_BY_NAME = {m.name: m for m in METRICS}


def lookup_metric(name: str) -> Metric:
    """The registry entry of a metric name."""
    try:
        return _BY_NAME[name]
    except (KeyError, TypeError):
        raise NearDelaunayError(f"unknown metric {name!r}") from None


# --- whole-triangulation evaluation ------------------------------------------


class Evaluator:
    """Caches per-element values for one point set.

    Edge and triangle scores depend only on the element and the point set,
    and quadrilateral scores only on the four defining points, so scores are
    shared across all triangulations of the same point set.  This is what
    makes exhaustive optimization cheap.  Besides the values it keeps the
    points inside each triangle's circumcircle (:meth:`inside`) and the
    circumcircles of the Delaunay triangles, which ``shrunk_circle`` scans;
    it builds no Voronoi diagram.
    """

    def __init__(self, ps: PointSet):
        self.point_set = ps
        # shrunk_circle's Delaunay triangulation and its empty circles
        self._delaunay: Triangulation | None = None
        self._circles: dict[tuple, Circle] | None = None
        self._cache: dict[str, dict] = {m: {} for m in ALL_METRICS}
        self._inside: dict[tuple, list[int]] = {}

    def inside(self, tri: tuple) -> list[int]:
        """:func:`~neardelaunay.geom.inside_circumcircle` of a triangle,
        scanned once for both triangle metrics."""
        found = self._inside.get(tri)
        if found is None:
            found = self._inside[tri] = inside_circumcircle(self.point_set.points, tri)
        return found

    def element_value(self, metric: str, element: tuple) -> float:
        """Cached value of one element in the form ``triangulation.elements``
        gives; a quadrilateral's sides are not checked here."""
        try:
            cache = self._cache[metric]
        except (KeyError, TypeError):
            cache = self._cache[lookup_metric(metric).name]  # raises: unknown metric
        value = cache.get(element)
        if value is None:
            value = cache[element] = _BY_NAME[metric].value(self, element)
        return value

    def values_by_id(
        self, metric: str, ids: np.ndarray, element, bound=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One float array indexed by element id, and a mask of its exact
        entries.  Entry e is the value of ``element(e)`` for every id e in
        ``ids`` (non-negative integers, any shape), 0 for the ids not in it;
        given the metric's ``bound``, an uncached element gets its bound
        instead, False in the mask.  ``np.bincount`` marks the ids used, so
        ``values[ids]`` gathers per-row values without a sort.

        Each used id is decoded once.  Before any value or bound, one
        batched screen (:func:`~neardelaunay.geom.in_circles`) fills
        :meth:`inside` for the uncached triangles of a triangle metric, and
        caches 0.0 for each uncached quadrilateral of a ``zero_outside``
        metric whose q is not inside the circumcircle of (u, v, p).  Both
        give what the scalar scans give, so the values are the same."""
        m = lookup_metric(metric)
        cache = self._cache[metric]
        pts = self.point_set.points
        used = np.flatnonzero(np.bincount(ids.ravel()))
        values = np.zeros(int(used[-1]) + 1 if len(used) else 0)
        exact = np.ones(len(values), dtype=bool)
        keys = [element(e) for e in used.tolist()]
        fresh = [key for key in keys if key not in cache]
        if m.decomposition is _TRI:
            fresh = [key for key in fresh if key not in self._inside]
            if fresh:
                self._inside.update(zip(fresh, _inside_circumcircles(pts, fresh)))
        elif m.zero_outside and fresh:
            quads = np.array(fresh, dtype=np.intp)
            inside = in_circles(np.array(pts, dtype=float), quads[:, :3], quads[:, 3:])[:, 0]
            for i in np.flatnonzero(~inside).tolist():
                cache[fresh[i]] = 0.0
        if bound is None:
            values[used] = [self.element_value(metric, key) for key in keys]
        else:
            exact[used] = known = [key in cache for key in keys]
            values[used] = [
                cache[key] if ok else bound(self, key) for key, ok in zip(keys, known)
            ]
        return values, exact

    def scores(self, t: Triangulation, metric: str) -> list[ElementScore]:
        if t.point_set != self.point_set:
            raise MismatchedPointSets("the triangulation is not over the evaluator's point set")
        m = lookup_metric(metric)
        return [
            ElementScore(e, self.element_value(metric, e), m.orientation)
            for e in elements(t, m.decomposition)
        ]

    def values(self, t: Triangulation, metric: str) -> tuple[float, ...]:
        return tuple(s.value for s in self.scores(t, metric))


def evaluate(t: Triangulation, metric: str) -> list[ElementScore]:
    """One score per element of the metric's decomposition, in canonical order."""
    return Evaluator(t.point_set).scores(t, metric)
