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

from .delaunay import VoronoiDiagram, voronoi
from .errors import NearDelaunayError, SiteOutsideCircle
from .geom import (
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
    clip_polygon_halfplane,
    dist_point_segment as _dist_point_segment,
    in_circumcircle,
    inscribed_circle,
    orientation,
    polygon_area,
)
from .triangulation import Decomposition, Quadrilateral, Triangulation, elements

TWO_PI = 2.0 * math.pi


class ScoreOrientation(Enum):
    LOWER_BETTER = "lower_better"
    HIGHER_BETTER = "higher_better"


@dataclass(frozen=True)
class ElementScore:
    element: tuple
    value: float
    orientation: ScoreOrientation


# --- quadrilateral scores ----------------------------------------------------
# Values of the points u, v of an interior edge and p, q opposite it.


def _quad_score(q: Quadrilateral, value) -> ElementScore:
    return ElementScore(
        (*q.key()[0], *q.key()[1]), value(*q.coords()), ScoreOrientation.LOWER_BETTER
    )


def _opposing_angles_value(pu: Point, pv: Point, pp: Point, pq: Point) -> float:
    excess = angle_at(pp, pu, pv) + angle_at(pq, pu, pv) - math.pi
    return max(0.0, excess)


def opposing_angles(q: Quadrilateral) -> ElementScore:
    """Excess of the two opposing angles over pi (0 when locally Delaunay)."""
    return _quad_score(q, _opposing_angles_value)


def _dual_edge_ratio_value(pu: Point, pv: Point, pp: Point, pq: Point) -> float:
    if not in_circumcircle(pu, pv, pp, pq):
        return 0.0
    cp = circumcircle(pu, pv, pp).center
    cq = circumcircle(pu, pv, pq).center
    return math.dist(cp, cq) / math.dist(pu, pv)


def dual_edge_ratio(q: Quadrilateral) -> ElementScore:
    """Distance between the two circumcenters over the edge length.

    Zero when the quadrilateral is locally Delaunay; otherwise the two
    centers sit in inverted order and their separation measures how far.
    """
    return _quad_score(q, _dual_edge_ratio_value)


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


def _line_intersection(n1, c1, n2, c2) -> Point | None:
    det = n1[0] * n2[1] - n1[1] * n2[0]
    if det == 0.0:
        return None
    return Point((c1 * n2[1] - c2 * n1[1]) / det, (n1[0] * c2 - n2[0] * c1) / det)


def _dual_overlap_area(pu: Point, pv: Point, pp: Point, pq: Point) -> float:
    # Work in a frame centred on the quadrilateral for conditioning.
    ox = (pu[0] + pv[0] + pp[0] + pq[0]) / 4.0
    oy = (pu[1] + pv[1] + pp[1] + pq[1]) / 4.0
    u, v, p, q = (
        Point(w[0] - ox, w[1] - oy) for w in (pu, pv, pp, pq)
    )
    halfplanes = [
        _bisector_halfplane(p, u),
        _bisector_halfplane(q, u),
        _bisector_halfplane(q, v),
        _bisector_halfplane(p, v),
    ]
    cp = circumcircle(u, v, p).center
    cq = circumcircle(u, v, q).center
    mu = circumcircle(u, p, q).center
    mv = circumcircle(v, p, q).center
    poly = [cp, mu, cq, mv]
    scale = max(abs(w) for pt in poly for w in pt) or 1.0
    ok = True
    signs = set()
    for i in range(4):
        o = orientation(poly[i], poly[(i + 1) % 4], poly[(i + 2) % 4])
        if o is Orientation.COLLINEAR:
            ok = False
            break
        signs.add(o)
    if len(signs) != 1:
        ok = False
    if ok:
        for n, c in halfplanes:
            bound = 1e-9 * max(1.0, math.hypot(*n)) * max(1.0, scale)
            if any(n[0] * x + n[1] * y - c > bound for x, y in poly):
                ok = False
                break
    if ok:
        return polygon_area(poly)
    # Fallback: clip a box around every pairwise bisector intersection.
    corners = [w for w in (cp, cq, mu, mv)]
    for i in range(4):
        for j in range(i + 1, 4):
            w = _line_intersection(*halfplanes[i], *halfplanes[j])
            if w is not None and math.isfinite(w[0]) and math.isfinite(w[1]):
                corners.append(w)
    xs = [w[0] for w in corners]
    ys = [w[1] for w in corners]
    pad = max(max(xs) - min(xs), max(ys) - min(ys), math.dist(u, v)) + 1.0
    box = [
        Point(min(xs) - pad, min(ys) - pad),
        Point(max(xs) + pad, min(ys) - pad),
        Point(max(xs) + pad, max(ys) + pad),
        Point(min(xs) - pad, max(ys) + pad),
    ]
    region = box
    for n, c in halfplanes:
        region = clip_polygon_halfplane(region, n, c)
        if not region:
            return 0.0
    return polygon_area(region)


def _dual_area_overlap_value(pu: Point, pv: Point, pp: Point, pq: Point) -> float:
    if not in_circumcircle(pu, pv, pp, pq):
        return 0.0
    return _dual_overlap_area(pu, pv, pp, pq) / math.dist(pu, pv) ** 2


def dual_area_overlap(q: Quadrilateral) -> ElementScore:
    """Overlap area of the two opposing local cells over the squared edge length.

    The cell of p is bounded by the bisectors of (p, u) and (p, v); for a
    locally Delaunay quadrilateral it is disjoint from q's cell.
    """
    return _quad_score(q, _dual_area_overlap_value)


# --- edge scores -------------------------------------------------------------


def _lens_value(ps: PointSet, u: int, v: int) -> float:
    """Tangent angle of the widest empty lens over the edge, capped at pi.

    Each side contributes pi minus the largest angle the edge subtends from
    a point strictly on that side (pi when the side is empty); by the
    inscribed-angle theorem this is the tangent direction of the largest
    empty arc on that side.
    """
    pts = ps.points
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


def lens(edge, ps: PointSet, t: Triangulation) -> ElementScore:
    u, v = min(edge), max(edge)
    if not t.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the triangulation")
    return ElementScore((u, v), _lens_value(ps, u, v), ScoreOrientation.HIGHER_BETTER)


def _shrunk_circle_value(ps: PointSet, vd: VoronoiDiagram, u: int, v: int) -> float:
    """Largest fraction of the edge covered by an empty circle.

    The best empty circle is centred on the Voronoi diagram, the coverage is
    quasiconvex along its edges (each point of the segment is covered over a
    prefix or a suffix of a Voronoi edge, since the in-circle test is affine
    in the centre, and the segment's endpoints are never strictly inside an
    empty circle), and unbounded edges are dominated by their bounded
    endpoint, so only the maximal circles at Voronoi vertices need testing.
    """
    seg = Segment(ps.points[u], ps.points[v])
    length = math.dist(seg.a, seg.b)
    best = 0.0
    for vert in vd.vertices:
        overlap = chord_overlap_length(vert.circle(), seg)
        if overlap > best:
            best = overlap
    return min(1.0, max(0.0, best / length))


def shrunk_circle(edge, ps: PointSet, vd: VoronoiDiagram) -> ElementScore:
    u, v = min(edge), max(edge)
    return ElementScore(
        (u, v), _shrunk_circle_value(ps, vd, u, v), ScoreOrientation.HIGHER_BETTER
    )


# --- triangle scores ---------------------------------------------------------


def _segment_area_on_side(circle: Circle, a: Point, b: Point, side: Orientation) -> float:
    """Area of the circular segment cut by chord ab on the given side of a->b."""
    center_side = orientation(a, b, circle.center)
    if center_side is side:
        kind = SegmentSide.CONTAINS_CENTER
    else:
        kind = SegmentSide.OPPOSITE_CENTER  # includes center-on-chord: halves agree
    return circular_segment_area(circle, Segment(a, b), kind)


def _triangular_lens_value(ps: PointSet, tri) -> float:
    pts = ps.points
    iu, iv, iw = tri
    corners = (pts[iu], pts[iv], pts[iw])
    circ = circumcircle(*corners)
    r2 = circ.radius * circ.radius
    tri_area = polygon_area(corners)
    denom = math.pi * r2 - tri_area
    inside = [i for i, p in enumerate(pts) if i not in tri and in_circumcircle(*corners, p)]
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


def triangular_lens(tri, ps: PointSet) -> ElementScore:
    """Fraction of the circumcircle outside the triangle covered by the three
    largest empty arcs, one per side."""
    key = tuple(sorted(tri))
    return ElementScore(
        key, _triangular_lens_value(ps, key), ScoreOrientation.HIGHER_BETTER
    )


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
    straight bisector pieces (two sites)."""
    o, big_r = c
    sites = tuple(Point(float(p[0]), float(p[1])) for p in inside_sites)
    for s in sites:
        # The exact in-circle predicate can put a site inside whose float distance
        # rounds to R or just above; its ellipse then degenerates (b = 0).
        if math.dist(o, s) > big_r * (1.0 + 1e-9):
            raise SiteOutsideCircle(f"site {s} is not inside {c}")
    segments: list[EllipticalSegment | StraightSegment] = []
    ellipses = [_site_ellipse(c, s) for s in sites]
    for i, s in enumerate(sites):
        ell = ellipses[i]
        arcs = [(0.0, TWO_PI)]
        for j, other in enumerate(sites):
            if j == i:
                continue
            n, cc = _bisector_halfplane(s, other)
            arcs = _intersect_intervals(arcs, _ellipse_halfplane_arcs(ell, n, cc))
            if not arcs:
                break
        for lo, hi in sorted(arcs):
            segments.append(EllipticalSegment(s, ell, lo, hi))
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            si, sj = sites[i], sites[j]
            mid = Point((si[0] + sj[0]) / 2.0, (si[1] + sj[1]) / 2.0)
            dx, dy = sj[0] - si[0], sj[1] - si[1]
            norm = math.hypot(dx, dy)
            d = (-dy / norm, dx / norm)
            lo, hi = -math.inf, math.inf
            for k, other in enumerate(sites):
                if k in (i, j):
                    continue
                n, cc = _bisector_halfplane(si, other)
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
    """Circles centred at x(t) = a + t (b - a), t in [0, 1], through the site S
    (radius |x - S|) at t = 0, 1 and wherever the distance to a side's line or
    to a corner equals the radius.  Squared, the first is a quadratic in t; the
    second puts x on the bisector of the corner and S, which is linear in t."""
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
            out.append((x, math.dist(x, site)))
    return out


def _arc_candidates(seg: EllipticalSegment, sides):
    """Circles centred on the arc at its ends and wherever the distance to a
    side's line or to a corner equals the radius a + c cos(theta).  The signed
    line distance and the corner's bisector are affine in (cos, sin), so each
    case is one A cos(theta) + B sin(theta) = K."""
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
    return [(ell.point_at(th), ell.radius_at(th)) for th in params]


def _shrunk_circumcircle_value(ps: PointSet, tri) -> float:
    pts = ps.points
    corners = tuple(pts[i] for i in tri)
    circ = circumcircle(*corners)
    big_r = circ.radius
    r2 = big_r * big_r
    sites = [p for i, p in enumerate(pts) if i not in tri and in_circumcircle(*corners, p)]
    if not sites:
        return 1.0
    inc = inscribed_circle(*corners)
    sides = [
        (corners[0], corners[1]),
        (corners[1], corners[2]),
        (corners[2], corners[0]),
    ]
    candidates: list[tuple[Point, float]] = []
    for seg in local_voronoi(circ, sites).segments:
        if isinstance(seg, StraightSegment):
            candidates.extend(_straight_candidates(seg, sides))
        else:
            candidates.extend(_arc_candidates(seg, sides))
    slack = 1e-9 * big_r
    best = inc.radius  # the incircle is always empty and meets all three sides
    for x, r in candidates:
        if r <= best:
            continue
        if all(_dist_point_segment(x, a, b) <= r + slack for a, b in sides):
            best = r
    best = min(best, big_r)
    ri2 = inc.radius * inc.radius
    return max(0.0, min(1.0, (best * best - ri2) / (r2 - ri2)))


def shrunk_circumcircle(tri, ps: PointSet) -> ElementScore:
    """Area of the largest empty circle inside the circumcircle that meets
    all three sides, between the inscribed circle (0) and the circumcircle (1).
    """
    key = tuple(sorted(tri))
    return ElementScore(
        key, _shrunk_circumcircle_value(ps, key), ScoreOrientation.HIGHER_BETTER
    )


# --- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One metric: the elements it scores, its direction, its value on every Delaunay
    element, and its uncached value as a function of (evaluator, element)."""

    name: str
    decomposition: Decomposition
    orientation: ScoreOrientation
    perfect: float
    value: Callable[["Evaluator", tuple], float]


def _of_points(value):
    """An element value from the four points of (u, v, p, q)."""
    return lambda ev, quad: value(*map(ev.point_set.points.__getitem__, quad))


_LOWER, _HIGHER = ScoreOrientation.LOWER_BETTER, ScoreOrientation.HIGHER_BETTER
_QUAD, _EDGE, _TRI = Decomposition.QUADRILATERAL, Decomposition.EDGE, Decomposition.TRIANGLE

METRICS = (
    Metric("opposing_angles", _QUAD, _LOWER, 0.0, _of_points(_opposing_angles_value)),
    Metric("dual_edge_ratio", _QUAD, _LOWER, 0.0, _of_points(_dual_edge_ratio_value)),
    Metric("dual_area_overlap", _QUAD, _LOWER, 0.0, _of_points(_dual_area_overlap_value)),
    Metric("lens", _EDGE, _HIGHER, math.pi, lambda ev, e: _lens_value(ev.point_set, *e)),
    Metric("shrunk_circle", _EDGE, _HIGHER, 1.0,
           lambda ev, e: _shrunk_circle_value(ev.point_set, ev.voronoi(), *e)),
    Metric("triangular_lens", _TRI, _HIGHER, 1.0,
           lambda ev, tri: _triangular_lens_value(ev.point_set, tri)),
    Metric("shrunk_circumcircle", _TRI, _HIGHER, 1.0,
           lambda ev, tri: _shrunk_circumcircle_value(ev.point_set, tri)),
)

# Views of the registry, in its order.
ALL_METRICS = tuple(m.name for m in METRICS)
QUADRILATERAL_METRICS = tuple(m.name for m in METRICS if m.decomposition is _QUAD)
EDGE_METRICS = tuple(m.name for m in METRICS if m.decomposition is _EDGE)
TRIANGLE_METRICS = tuple(m.name for m in METRICS if m.decomposition is _TRI)
METRIC_ORIENTATION = {m.name: m.orientation for m in METRICS}
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
    makes exhaustive optimization cheap.
    """

    def __init__(self, ps: PointSet):
        self.point_set = ps
        self._vd: VoronoiDiagram | None = None
        self._cache: dict[str, dict] = {m: {} for m in ALL_METRICS}

    def voronoi(self) -> VoronoiDiagram:
        if self._vd is None:
            self._vd = voronoi(self.point_set)
        return self._vd

    def element_value(self, metric: str, element: tuple) -> float:
        """Cached value of one element in the form ``triangulation.elements``
        gives; a quadrilateral's sides are not checked here."""
        cache = self._cache[metric]
        value = cache.get(element)
        if value is None:
            value = cache[element] = _BY_NAME[metric].value(self, element)
        return value

    def scores(self, t: Triangulation, metric: str) -> list[ElementScore]:
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
