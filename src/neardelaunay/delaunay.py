"""Delaunay triangulation, its Voronoi dual, and constrained variants.

Construction is incremental at desk scale: build any triangulation by a
lexicographic scan, then legalize with flips until every interior edge is
locally Delaunay.  Constrained edges are inserted by flipping away the
edges that cross them, then legalizing every unconstrained edge.  All of
it flips one apex map (edge -> opposite vertices) in place.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import InvalidConstraintEdges
from .geom import (
    Point,
    PointSet,
    circumcircle,
    in_circumcircle,
    separates,
    validate_general_position,
)
from .triangulation import (
    ApexMap,
    EdgeKey,
    Triangulation,
    Triple,
    apex_map,
    apex_triangles,
    flip_edge,
    index_pair,
    scan_triangulation,
)


def _legalize(pts: Sequence[Point], apex: ApexMap, frozen: frozenset[EdgeKey]) -> None:
    """Flip non-frozen interior edges until all are locally Delaunay.

    An edge uv whose apex q is strictly inside circle uvp has a convex
    quadrilateral, so its flip is never blocked.  Were the quadrilateral not
    convex, u or v would lie in the triangle of the other three points.
    Four such points have one triangulation, which is therefore their
    Delaunay triangulation, and its triangle uvp holds no q.  The exact
    predicates make ``in_circumcircle`` and ``flip_edge``'s ``separates``
    test agree with this on every input.
    """
    pending = set(apex) - frozen
    while pending:
        edge = pending.pop()
        opp = apex.get(edge)
        if opp is None or len(opp) != 2:
            continue
        u, v = edge
        p, q = opp
        if not in_circumcircle(pts[u], pts[v], pts[p], pts[q]):
            continue
        flip_edge(pts, apex, edge)
        for e in ((u, p), (u, q), (v, p), (v, q)):
            e = (min(e), max(e))
            if e not in frozen:
                pending.add(e)


def delaunay(ps: PointSet) -> Triangulation:
    """The (unique, under general position) Delaunay triangulation, built
    once per point set and kept on it."""
    validate_general_position(ps)
    if ps._delaunay is None:
        apex = apex_map(scan_triangulation(ps).triangles)
        _legalize(ps.points, apex, frozenset())
        ps._delaunay = Triangulation(ps, apex_triangles(apex))
    return ps._delaunay


# --- constrained Delaunay ---------------------------------------------------


def _proper_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Open segments ab and cd intersect in a single interior point."""
    return separates(a, b, c, d) and separates(c, d, a, b)


def _insert_edge(pts: Sequence[Point], apex: ApexMap, edge: EdgeKey) -> None:
    """Force an edge into the triangulation by flipping the edges crossing it."""
    u, v = edge
    queue = deque(
        sorted(e for e in apex if _proper_cross(pts[u], pts[v], pts[e[0]], pts[e[1]]))
    )
    guard = 0
    limit = 10 * (len(pts) ** 4 + 100)
    while queue:
        guard += 1
        if guard > limit:
            raise RuntimeError(f"edge insertion did not converge for {edge}")
        e = queue.popleft()
        new_edge = flip_edge(pts, apex, e)
        if new_edge is None:
            queue.append(e)  # blocked by a non-convex quadrilateral; retry later
        elif _proper_cross(pts[u], pts[v], pts[new_edge[0]], pts[new_edge[1]]):
            queue.append(new_edge)


def normalize_edges(ps: PointSet, edges) -> list[EdgeKey]:
    """Sorted distinct edge keys; InvalidConstraintEdges for a bad index pair."""
    norm: set[EdgeKey] = set()
    for edge in edges:
        i, j = index_pair(edge)
        if i == j or not (0 <= i < len(ps) and 0 <= j < len(ps)):
            raise InvalidConstraintEdges(f"bad edge ({i}, {j})")
        norm.add((min(i, j), max(i, j)))
    return sorted(norm)


def cdt(ps: PointSet, required: Sequence[EdgeKey] | set[EdgeKey]) -> Triangulation:
    """Triangulation containing the required edges, locally Delaunay elsewhere."""
    validate_general_position(ps)
    pts = ps.points
    edges = normalize_edges(ps, required)
    for e, f in combinations(edges, 2):
        if _proper_cross(pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]]):
            raise InvalidConstraintEdges(f"required edges {e} and {f} cross")
    apex = apex_map(delaunay(ps).triangles)
    for e in edges:
        if e not in apex:
            _insert_edge(pts, apex, e)
    _legalize(pts, apex, frozenset(edges))
    return Triangulation(ps, apex_triangles(apex))


# --- Voronoi dual -----------------------------------------------------------


@dataclass(frozen=True)
class VoronoiVertex:
    point: Point
    sites: Triple  # defining Delaunay triangle
    radius: float  # circumradius = maximal empty circle radius


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
    for edge, opp in sorted(dt.apexes().items()):
        u, v = edge
        ends = [tri_index[tuple(sorted((u, v, w)))] for w in opp]
        if len(opp) == 2:
            ve = VoronoiEdge(edge, ends[0], ends[1], None)
        else:
            (apex,) = opp
            dx, dy = pts[v][0] - pts[u][0], pts[v][1] - pts[u][1]
            norm = (dx * dx + dy * dy) ** 0.5
            n = (dy / norm, -dx / norm)
            # point away from the apex
            ax, ay = pts[apex][0] - pts[u][0], pts[apex][1] - pts[u][1]
            if n[0] * ax + n[1] * ay > 0:
                n = (-n[0], -n[1])
            ve = VoronoiEdge(edge, ends[0], None, n)
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
