"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths of the package: brute-force grids,
explicit arc constructions, and a separate polygon clipper.  The flip walk
over frozensets, the per-candidate search scan, the sampled root finder
of shrunk_circumcircle and the whole-list general-position check are the
exceptions: they are the package's implementations from before the integer
triangulation table, the closed-form roots and the streamed subset scan,
kept as the references those must match.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from neardelaunay.aggregate import (
    AggregationMode,
    Comparison,
    ScoreVector,
    aggregate_sum,
    compare_bottleneck_lex,
)
from neardelaunay.geom import (
    Orientation,
    PointSet,
    Segment,
    SegmentSide,
    circular_segment_area,
    circumcircle,
    inscribed_circle,
    orientation,
    validate_general_position,
)
from neardelaunay.metrics import (
    METRIC_ORIENTATION,
    ScoreOrientation,
    StraightSegment,
    _dist_point_segment,
    local_voronoi,
)
from neardelaunay.triangulation import (
    Triangulation,
    flip,
    satisfies,
    scan_triangulation,
)


# --- triangulation counting by maximal non-crossing edge sets ------------------


def count_triangulations_by_edge_sets(ps: PointSet) -> int:
    """Number of triangulations as the number of maximal pairwise
    non-crossing edge sets, found by include/exclude backtracking.
    Exponential; for small n only."""
    pts = ps.points
    n = len(pts)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def proper_cross(e, f):
        a, b = pts[e[0]], pts[e[1]]
        c, d = pts[f[0]], pts[f[1]]
        o1 = orientation(a, b, c)
        o2 = orientation(a, b, d)
        o3 = orientation(c, d, a)
        o4 = orientation(c, d, b)
        if Orientation.COLLINEAR in (o1, o2, o3, o4):
            return False
        return o1 is not o2 and o3 is not o4

    crossing = {
        e: {f for f in edges if f != e and proper_cross(e, f)} for e in edges
    }
    count = 0

    def recurse(idx, chosen, excluded):
        nonlocal count
        if idx == len(edges):
            if all(crossing[f] & chosen for f in excluded):
                count += 1
            return
        e = edges[idx]
        if not (crossing[e] & chosen):
            recurse(idx + 1, chosen | {e}, excluded)
            if crossing[e]:  # an uncrossable edge is in every maximal set
                recurse(idx + 1, chosen, excluded | {e})
        else:
            recurse(idx + 1, chosen, excluded)

    recurse(0, frozenset(), frozenset())
    return count


# --- general position over whole lists of triples and quadruples -------------


def _triple_violations(coords: np.ndarray, guard: float):
    n = len(coords)
    idx = np.fromiter(
        (k for c in combinations(range(n), 3) for k in c), dtype=np.int64
    ).reshape(-1, 3)
    a, b, c = coords[idx[:, 0]], coords[idx[:, 1]], coords[idx[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    l2 = np.maximum(
        ((b - a) ** 2).sum(1),
        np.maximum(((c - a) ** 2).sum(1), ((c - b) ** 2).sum(1)),
    )
    bad = np.abs(det) <= guard * l2
    return idx[bad]


def _quad_violations(coords: np.ndarray, guard: float):
    n = len(coords)
    combos = list(combinations(range(n), 4))
    chunk = 200_000
    for start in range(0, len(combos), chunk):
        idx = np.array(combos[start : start + chunk], dtype=np.int64)
        a, b, c, d = (coords[idx[:, k]] for k in range(4))
        ad, bd, cd = a - d, b - d, c - d
        alift = (ad**2).sum(1)
        blift = (bd**2).sum(1)
        clift = (cd**2).sum(1)
        det = (
            alift * (bd[:, 0] * cd[:, 1] - cd[:, 0] * bd[:, 1])
            + blift * (cd[:, 0] * ad[:, 1] - ad[:, 0] * cd[:, 1])
            + clift * (ad[:, 0] * bd[:, 1] - bd[:, 0] * ad[:, 1])
        )
        l2 = np.zeros(len(idx))
        pts = (a, b, c, d)
        for i in range(4):
            for j in range(i + 1, 4):
                l2 = np.maximum(l2, ((pts[i] - pts[j]) ** 2).sum(1))
        bad = np.abs(det) <= guard * l2 * l2
        if bad.any():
            return idx[bad]
    return np.empty((0, 4), dtype=np.int64)


def general_position_message(ps: PointSet, guard: float) -> str | None:
    """The GeneralPositionViolated message validate_general_position gave
    when it held every triple and every quadruple in one list, or None."""
    coords = np.asarray(ps.points, dtype=np.float64)
    bad3 = _triple_violations(coords, guard)
    if len(bad3):
        i, j, k = (int(v) for v in bad3[0])
        return f"points {i}, {j}, {k} are collinear (within guard {guard:g})"
    bad4 = _quad_violations(coords, guard)
    if len(bad4):
        i, j, k, l = (int(v) for v in bad4[0])
        return f"points {i}, {j}, {k}, {l} are cocircular (within guard {guard:g})"
    return None


# --- enumeration by a flip walk over triangle sets --------------------------


def enumerate_by_frozenset_walk(ps: PointSet) -> list[Triangulation]:
    """Every triangulation in canonical order, by a depth-first walk of the
    flip graph over frozensets of triangle triples, flipping with
    :func:`flip` itself."""
    validate_general_position(ps)
    seed = frozenset(scan_triangulation(ps).triangles)
    seen = {seed}
    stack = [seed]
    while stack:
        cur = stack.pop()
        count: dict = {}
        for i, j, k in cur:
            for e in ((i, j), (i, k), (j, k)):
                count[e] = count.get(e, 0) + 1
        for edge in (e for e, c in count.items() if c == 2):
            nxt = flip(ps, cur, edge)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return [Triangulation(ps, tris) for tris in sorted(tuple(sorted(s)) for s in seen)]


# --- constrained search by a scan over candidates ------------------------------


def best_by_scan(candidates, constraint, metric, mode, dt_length, evaluator):
    """Best candidate that satisfies the constraint, scoring each with
    Evaluator.values; a later candidate replaces the best only when strictly
    better, so ties keep the earliest."""
    lower_better = METRIC_ORIENTATION[metric] is ScoreOrientation.LOWER_BETTER
    best = best_sum = best_vec = None
    for t in candidates:
        if not satisfies(t, constraint, dt_length):
            continue
        sv = ScoreVector(metric, METRIC_ORIENTATION[metric], evaluator.values(t, metric))
        if mode is AggregationMode.SUM:
            value = aggregate_sum(sv)
            if best is None or (value < best_sum if lower_better else value > best_sum):
                best, best_sum = t, value
        elif best is None or compare_bottleneck_lex(sv, best_vec) is Comparison.A_CLOSER:
            best, best_vec = t, sv
    return best


# --- in_circumcircle by direct distances -------------------------------------


def incircle_distance_oracle(a, b, c, d) -> bool:
    circ = circumcircle(a, b, c)
    return math.dist(circ.center, d) < circ.radius


# --- lens by explicit arc construction ----------------------------------------


def _side_angle_by_arcs(ps: PointSet, u: int, v: int, side: Orientation) -> float:
    """Tangent-chord angle at u of the smallest-area empty arc on one side.

    Builds each candidate arc explicitly, takes the one with minimal segment
    area, and measures the angle between the chord and the tangent direction
    of travel at u.  pi when the side holds no points.
    """
    pu, pv = ps[u], ps[v]
    best_area = None
    best_w = None
    for i, pw in enumerate(ps):
        if i in (u, v) or orientation(pu, pv, pw) is not side:
            continue
        circ = circumcircle(pu, pv, pw)
        center_side = orientation(pu, pv, circ.center)
        kind = (
            SegmentSide.CONTAINS_CENTER
            if center_side is side
            else SegmentSide.OPPOSITE_CENTER
        )
        area = circular_segment_area(circ, Segment(pu, pv), kind)
        if best_area is None or area < best_area:
            best_area, best_w = area, pw
    if best_w is None:
        return math.pi
    circ = circumcircle(pu, pv, best_w)
    cx, cy = circ.center
    radial = (pu[0] - cx, pu[1] - cy)
    if orientation(pu, best_w, pv) is Orientation.CCW:
        tangent = (-radial[1], radial[0])  # counterclockwise travel
    else:
        tangent = (radial[1], -radial[0])
    chord = (pv[0] - pu[0], pv[1] - pu[1])
    cross = chord[0] * tangent[1] - chord[1] * tangent[0]
    dot = chord[0] * tangent[0] + chord[1] * tangent[1]
    return math.atan2(abs(cross), dot)


def lens_arc_oracle(ps: PointSet, u: int, v: int) -> float:
    theta = _side_angle_by_arcs(ps, u, v, Orientation.CCW) + _side_angle_by_arcs(
        ps, u, v, Orientation.CW
    )
    return min(math.pi, theta)


# --- shrunk circle by grid search ---------------------------------------------


def _qhull_circumcenters(pts: np.ndarray) -> np.ndarray:
    from scipy.spatial import Delaunay as ScipyDelaunay

    centers = []
    for tri in ScipyDelaunay(pts).simplices:
        a, b, c = pts[tri]
        bx, by = b - a
        cx, cy = c - a
        d = 2.0 * (bx * cy - by * cx)
        b2 = bx * bx + by * by
        c2 = cx * cx + cy * cy
        centers.append(a + ((cy * b2 - by * c2) / d, (bx * c2 - cx * b2) / d))
    return np.asarray(centers)


def _grid_search_max(objective, x0, x1, y0, y1, res=400, topk=8, rounds=3):
    """Max of `objective(X, Y)` by brute force: one res x res pass, then
    local re-gridding around the best separated cells.  A single coarse pass
    cannot certify tight tolerances near pointy optima; refinement keeps the
    oracle blind to the analytic structure while resolving the value."""
    xs = np.linspace(x0, x1, res)
    ys = np.linspace(y0, y1, res)
    X, Y = np.meshgrid(xs, ys)
    vals = objective(X, Y)
    best = float(np.nanmax(vals))
    order = np.argsort(vals, axis=None)[::-1]
    picks = []
    for flat in order[: 40 * topk]:
        iy, ix = np.unravel_index(flat, vals.shape)
        if all(abs(iy - py) > 5 or abs(ix - px) > 5 for py, px in picks):
            picks.append((iy, ix))
        if len(picks) == topk:
            break
    step_x = (x1 - x0) / (res - 1)
    step_y = (y1 - y0) / (res - 1)
    for iy, ix in picks:
        cx, cy = xs[ix], ys[iy]
        wx, wy = 2.0 * step_x, 2.0 * step_y
        for _ in range(rounds):
            fx = np.linspace(cx - wx, cx + wx, 41)
            fy = np.linspace(cy - wy, cy + wy, 41)
            FX, FY = np.meshgrid(fx, fy)
            fvals = objective(FX, FY)
            best = max(best, float(np.nanmax(fvals)))
            jy, jx = np.unravel_index(np.argmax(fvals), fvals.shape)
            cx, cy = fx[jx], fy[jy]
            wx /= 10.0
            wy /= 10.0
    return best


def grid_shrunk_circle(ps: PointSet, u: int, v: int, res: int = 400) -> float:
    """Max covered fraction of edge uv over empty circles centred on a
    res x res grid (plus local refinement), with the radius at each center
    the distance to the nearest point.  The grid spans the point set's
    bounding box extended to cover the circumcenters, where the best empty
    circles sit."""
    pts = np.asarray(ps.points)
    anchors = np.vstack([pts, _qhull_circumcenters(pts)])
    a = np.asarray(ps[u])
    b = np.asarray(ps[v])
    d = b - a
    dd = float(d @ d)

    def covered_fraction(X, Y):
        r = np.full(X.shape, np.inf)
        for px, py in pts:
            np.minimum(r, np.hypot(X - px, Y - py), out=r)
        t0 = ((X - a[0]) * d[0] + (Y - a[1]) * d[1]) / dd
        fx = a[0] + t0 * d[0] - X
        fy = a[1] + t0 * d[1] - Y
        h2 = r * r - (fx * fx + fy * fy)
        half = np.sqrt(np.maximum(h2, 0.0) / dd)
        lo = np.clip(t0 - half, 0.0, 1.0)
        hi = np.clip(t0 + half, 0.0, 1.0)
        return np.where(h2 > 0.0, hi - lo, 0.0)

    return _grid_search_max(
        covered_fraction,
        anchors[:, 0].min(),
        anchors[:, 0].max(),
        anchors[:, 1].min(),
        anchors[:, 1].max(),
        res=res,
    )


# --- shrunk circumcircle by grid search ----------------------------------------


def _grid_dist_to_segment(X, Y, a, b):
    d = (b[0] - a[0], b[1] - a[1])
    dd = d[0] * d[0] + d[1] * d[1]
    t = np.clip(((X - a[0]) * d[0] + (Y - a[1]) * d[1]) / dd, 0.0, 1.0)
    return np.hypot(X - a[0] - t * d[0], Y - a[1] - t * d[1])


def _crossings(f, lo: float, hi: float, samples: int = 129) -> list[float]:
    """Roots of f on [lo, hi] located by sampling plus bisection."""
    if hi <= lo:
        return []
    xs = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
    vals = [f(x) for x in xs]
    roots = []
    for k in range(samples - 1):
        v0, v1 = vals[k], vals[k + 1]
        if v0 == 0.0:
            roots.append(xs[k])
            continue
        if v0 * v1 < 0.0:
            a, b = xs[k], xs[k + 1]
            fa = v0
            for _ in range(80):
                m = (a + b) / 2.0
                fm = f(m)
                if fm == 0.0:
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append((a + b) / 2.0)
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def bisection_shrunk_circumcircle(ps: PointSet, tri) -> float:
    """shrunk_circumcircle with its roots found by 129 samples per local-Voronoi
    segment and side plus 80 bisection steps per sign change, as the package did
    before its closed-form roots.  It misses a root where a side's residual
    touches 0, or dips below it, between two samples."""
    pts = ps.points
    corners = tuple(pts[i] for i in tri)
    circ = circumcircle(*corners)
    o, big_r = circ
    r2 = big_r * big_r
    sites = [
        p
        for i, p in enumerate(pts)
        if i not in tri and (p[0] - o[0]) ** 2 + (p[1] - o[1]) ** 2 < r2
    ]
    if not sites:
        return 1.0
    inc = inscribed_circle(*corners)
    sides = [
        (corners[0], corners[1]),
        (corners[1], corners[2]),
        (corners[2], corners[0]),
    ]
    candidates = []
    for seg in local_voronoi(circ, sites).segments:
        if isinstance(seg, StraightSegment):
            sa, sb = seg.a, seg.b
            site = seg.sites[0]

            def pos(t, sa=sa, sb=sb):
                return (sa[0] + t * (sb[0] - sa[0]), sa[1] + t * (sb[1] - sa[1]))

            def rad(t, site=site, pos=pos):
                return math.dist(pos(t), site)

            params = [0.0, 1.0]
            for a, b in sides:
                params.extend(
                    _crossings(
                        lambda t: _dist_point_segment(pos(t), a, b) - rad(t), 0.0, 1.0
                    )
                )
            candidates.extend((pos(t), rad(t)) for t in params)
        else:
            ell = seg.ellipse
            params = [seg.theta_lo, seg.theta_hi]
            for a, b in sides:
                params.extend(
                    _crossings(
                        lambda th: _dist_point_segment(ell.point_at(th), a, b)
                        - ell.radius_at(th),
                        seg.theta_lo,
                        seg.theta_hi,
                    )
                )
            candidates.extend((ell.point_at(th), ell.radius_at(th)) for th in params)
    slack = 1e-9 * big_r
    best = inc.radius
    for x, r in candidates:
        if r <= best:
            continue
        if all(_dist_point_segment(x, a, b) <= r + slack for a, b in sides):
            best = r
    best = min(best, big_r)
    ri2 = inc.radius * inc.radius
    return max(0.0, min(1.0, (best * best - ri2) / (r2 - ri2)))


def grid_shrunk_circumcircle(ps: PointSet, tri, res: int = 400) -> float:
    corners = [ps[i] for i in tri]
    circ = circumcircle(*corners)
    inc = inscribed_circle(*corners)
    (ox, oy), R = circ

    def feasible_radius(X, Y):
        r = R - np.hypot(X - ox, Y - oy)  # stay inside the circumcircle
        for px, py in ps:
            np.minimum(r, np.hypot(X - px, Y - py), out=r)
        ok = r > 0.0
        for k in range(3):
            a, b = corners[k], corners[(k + 1) % 3]
            ok &= _grid_dist_to_segment(X, Y, a, b) <= r
        return np.where(ok, r, -np.inf)

    best = _grid_search_max(feasible_radius, ox - R, ox + R, oy - R, oy + R, res=res)
    best = max(best, inc.radius)  # the inscribed circle is always admissible
    ri2 = inc.radius * inc.radius
    return (best * best - ri2) / (R * R - ri2)


# --- dual area overlap by polygon clipping --------------------------------------


def _clip(poly, n, c):
    out = []
    if not poly:
        return out
    prev = poly[-1]
    fprev = n[0] * prev[0] + n[1] * prev[1] - c
    for cur in poly:
        fcur = n[0] * cur[0] + n[1] * cur[1] - c
        if fcur <= 0.0:
            if fprev > 0.0:
                t = fprev / (fprev - fcur)
                out.append(
                    (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                )
            out.append(tuple(cur))
        elif fprev <= 0.0:
            t = fprev / (fprev - fcur)
            out.append(
                (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
            )
        prev, fprev = cur, fcur
    return out


def _shoelace(poly):
    s = 0.0
    for i, (x0, y0) in enumerate(poly):
        x1, y1 = poly[(i + 1) % len(poly)]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0


def clip_dual_overlap_oracle(pu, pv, pp, pq) -> float:
    """Overlap area of the two opposing cells via halfplane clipping of a
    large box, normalized by the squared edge length.

    Applies the same locally-Delaunay case split as the metric (for locally
    Delaunay quadrilaterals the score is 0 by definition; for reflex
    quadrilaterals the raw cell overlap can even be unbounded there)."""
    if not incircle_distance_oracle(pu, pv, pp, pq):
        return 0.0
    pts = [pu, pv, pp, pq]
    span = max(
        max(abs(a[0] - b[0]), abs(a[1] - b[1])) for a in pts for b in pts
    )
    cx = sum(p[0] for p in pts) / 4.0
    cy = sum(p[1] for p in pts) / 4.0
    big = 50.0 * span
    poly = [
        (cx - big, cy - big),
        (cx + big, cy - big),
        (cx + big, cy + big),
        (cx - big, cy + big),
    ]
    for keep, cut in ((pp, pu), (pp, pv), (pq, pu), (pq, pv)):
        n = (cut[0] - keep[0], cut[1] - keep[1])
        c = (cut[0] ** 2 + cut[1] ** 2 - keep[0] ** 2 - keep[1] ** 2) / 2.0
        poly = _clip(poly, n, c)
        if not poly:
            return 0.0
    return _shoelace(poly) / math.dist(pu, pv) ** 2


# --- triangular lens by area sampling -------------------------------------------


def sampled_triangular_lens(ps: PointSet, tri, res: int = 700) -> float:
    """Covered fraction of circumcircle-minus-triangle estimated on a grid.

    For each side, the kept arc is the smallest empty one (recomputed here
    from scratch); a grid point counts as covered when it falls inside that
    arc's disk on the outer side of the corresponding chord.
    """
    corners = [ps[i] for i in tri]
    circ = circumcircle(*corners)
    (ox, oy), R = circ
    arcs = []
    for k in range(3):
        a, b = corners[k], corners[(k + 1) % 3]
        c = corners[(k + 2) % 3]
        inner = orientation(a, b, c)
        outer = Orientation.CW if inner is Orientation.CCW else Orientation.CCW
        blockers = [
            p
            for i, p in enumerate(ps)
            if i not in tri
            and math.dist(p, circ.center) < R
            and orientation(a, b, p) is outer
        ]
        if blockers:
            best = min(
                blockers,
                key=lambda p: _segment_area_explicit(a, b, p, outer),
            )
            arc_circle = circumcircle(a, b, best)
        else:
            arc_circle = circ
        arcs.append((a, b, outer, arc_circle))
    xs = np.linspace(ox - R, ox + R, res)
    ys = np.linspace(oy - R, oy + R, res)
    X, Y = np.meshgrid(xs, ys)
    in_circle = np.hypot(X - ox, Y - oy) < R
    side_masks = []
    for k in range(3):
        a, b, outer, _ = arcs[k]
        cross = (b[0] - a[0]) * (Y - a[1]) - (b[1] - a[1]) * (X - a[0])
        side_masks.append(cross > 0 if outer is Orientation.CCW else cross < 0)
    outside_tri = side_masks[0] | side_masks[1] | side_masks[2]
    region = in_circle & outside_tri
    covered = np.zeros_like(region)
    for k in range(3):
        _, _, _, arc_circle = arcs[k]
        (acx, acy), ar = arc_circle
        covered |= region & side_masks[k] & (np.hypot(X - acx, Y - acy) < ar)
    total = int(region.sum())
    return float(covered.sum()) / total if total else 1.0


def _segment_area_explicit(a, b, w, side):
    circ = circumcircle(a, b, w)
    kind = (
        SegmentSide.CONTAINS_CENTER
        if orientation(a, b, circ.center) is side
        else SegmentSide.OPPOSITE_CENTER
    )
    return circular_segment_area(circ, Segment(a, b), kind)
