"""Delaunay triangulation, its Voronoi dual, and constrained variants.

Construction is incremental at desk scale: build any triangulation by a
lexicographic scan, then legalize with flips until every interior edge is
locally Delaunay.  Constrained edges are inserted by flipping away the
edges that cross them, then legalizing every unconstrained edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidConstraintEdges
from .geom import (
    Circle,
    Orientation,
    Point,
    PointSet,
    circumcircle,
    in_circumcircle,
    orientation,
    validate_general_position,
)
from .triangulation import (
    EdgeKey,
    Triangulation,
    Triple,
    flip,
    flip_partner,
    scan_triangulation,
)


def _legalize(
    ps: PointSet, tris: frozenset[Triple], frozen: frozenset[EdgeKey]
) -> frozenset[Triple]:
    """Flip non-frozen interior edges until all are locally Delaunay."""
    pts = ps.points
    pending = set()
    for t in tris:
        i, j, k = t
        pending.update(((i, j), (i, k), (j, k)))
    pending -= frozen
    while pending:
        edge = pending.pop()
        partner = flip_partner(tris, edge)
        if partner is None:
            continue
        u, v = edge
        p, q = partner
        if not in_circumcircle(pts[u], pts[v], pts[p], pts[q]):
            continue
        flipped = flip(ps, tris, edge)
        if flipped is None:  # non-convex quadrilateral; nothing to fix here
            continue
        tris = flipped
        for e in ((u, p), (u, q), (v, p), (v, q)):
            e = (min(e), max(e))
            if e not in frozen:
                pending.add(e)
    return tris


def delaunay(ps: PointSet) -> Triangulation:
    """The (unique, under general position) Delaunay triangulation."""
    validate_general_position(ps)
    seed = frozenset(scan_triangulation(ps).triangles)
    return Triangulation(ps, _legalize(ps, seed, frozenset()))


# --- constrained Delaunay ---------------------------------------------------


def _proper_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Open segments ab and cd intersect in a single interior point."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if Orientation.COLLINEAR in (o1, o2, o3, o4):
        return False
    return o1 is not o2 and o3 is not o4


def _insert_edge(ps: PointSet, tris: frozenset[Triple], edge: EdgeKey) -> frozenset[Triple]:
    """Force an edge into the triangulation by flipping the edges crossing it."""
    pts = ps.points
    u, v = edge
    crossing = [
        e
        for e in {tuple(sorted((i, j))) for t in tris for i in t for j in t if i < j}
        if _proper_cross(pts[u], pts[v], pts[e[0]], pts[e[1]])
    ]
    from collections import deque

    queue = deque(sorted(crossing))
    guard = 0
    limit = 10 * (len(ps) ** 4 + 100)
    while queue:
        guard += 1
        if guard > limit:
            raise RuntimeError(f"edge insertion did not converge for {edge}")
        e = queue.popleft()
        flipped = flip(ps, tris, e)
        if flipped is None:
            queue.append(e)  # blocked by a non-convex quadrilateral; retry later
            continue
        partner = flip_partner(tris, e)
        tris = flipped
        new_edge = (min(partner), max(partner))
        if _proper_cross(pts[u], pts[v], pts[new_edge[0]], pts[new_edge[1]]):
            queue.append(new_edge)
    return tris


def cdt(ps: PointSet, required: Sequence[EdgeKey] | set[EdgeKey]) -> Triangulation:
    """Triangulation containing the required edges, locally Delaunay elsewhere."""
    validate_general_position(ps)
    pts = ps.points
    norm: set[EdgeKey] = set()
    for i, j in required:
        if i == j or not (0 <= i < len(ps)) or not (0 <= j < len(ps)):
            raise InvalidConstraintEdges(f"bad edge ({i}, {j})")
        norm.add((min(i, j), max(i, j)))
    edges = sorted(norm)
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            (i, j), (k, l) = edges[a], edges[b]
            if _proper_cross(pts[i], pts[j], pts[k], pts[l]):
                raise InvalidConstraintEdges(
                    f"required edges {edges[a]} and {edges[b]} cross"
                )
    tris = frozenset(delaunay(ps).triangles)
    for e in edges:
        present = any(e[0] in t and e[1] in t for t in tris)
        if not present:
            tris = _insert_edge(ps, tris, e)
    tris = _legalize(ps, tris, frozenset(edges))
    return Triangulation(ps, tris)


# --- Voronoi dual -----------------------------------------------------------


@dataclass(frozen=True)
class VoronoiVertex:
    point: Point
    sites: Triple  # defining Delaunay triangle
    radius: float  # circumradius = maximal empty circle radius

    def circle(self) -> Circle:
        return Circle(self.point, self.radius)


@dataclass(frozen=True)
class VoronoiEdge:
    sites: EdgeKey  # dual Delaunay edge
    start: int  # index into vertices
    end: int | None  # None for unbounded edges
    direction: tuple[float, float] | None  # outward unit direction when unbounded


@dataclass(frozen=True)
class VoronoiDiagram:
    point_set: PointSet
    vertices: tuple[VoronoiVertex, ...]
    edges: tuple[VoronoiEdge, ...]
    cells: dict[int, tuple[int, ...]]  # site -> incident edge indices
    delaunay: Triangulation


def voronoi(ps: PointSet) -> VoronoiDiagram:
    """Voronoi diagram derived as the dual of the Delaunay triangulation."""
    dt = delaunay(ps)
    pts = ps.points
    verts = []
    tri_index: dict[Triple, int] = {}
    for t in dt.triangles:
        c = circumcircle(pts[t[0]], pts[t[1]], pts[t[2]])
        tri_index[t] = len(verts)
        verts.append(VoronoiVertex(c.center, t, c.radius))
    edges = []
    cells: dict[int, list[int]] = {i: [] for i in range(len(ps))}
    for edge, owners in sorted(dt.edge_map().items()):
        u, v = edge
        if len(owners) == 2:
            ve = VoronoiEdge(edge, tri_index[owners[0]], tri_index[owners[1]], None)
        else:
            (t,) = owners
            apex = next(i for i in t if i not in edge)
            dx, dy = pts[v][0] - pts[u][0], pts[v][1] - pts[u][1]
            norm = (dx * dx + dy * dy) ** 0.5
            n = (dy / norm, -dx / norm)
            # point away from the apex
            ax, ay = pts[apex][0] - pts[u][0], pts[apex][1] - pts[u][1]
            if n[0] * ax + n[1] * ay > 0:
                n = (-n[0], -n[1])
            ve = VoronoiEdge(edge, tri_index[t], None, n)
        cells[u].append(len(edges))
        cells[v].append(len(edges))
        edges.append(ve)
    return VoronoiDiagram(
        ps,
        tuple(verts),
        tuple(edges),
        {i: tuple(es) for i, es in cells.items()},
        dt,
    )
