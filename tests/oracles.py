"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths of the package: brute-force grids,
explicit arc constructions, and a separate polygon clipper.  The flip walk
over frozensets, the bitmask table walk, the level-by-level numpy flip
walk, the per-candidate search scan, the sampled root finder of
shrunk_circumcircle, the whole-list general-position check, the
index-order local Voronoi diagram, the frozenset Delaunay and CDT
construction, the pairwise triangulation check and the unscreened
candidate loop of shrunk_circumcircle are the exceptions: they are the
package's implementations from before the integer triangulation table,
the level-by-level numpy walk, the canonical construction, the
closed-form roots, the streamed subset scan, the nearest-first clipping,
the in-place apex map, the edge-local validity test and the screened
search, kept as the references those must match.  So are the sum search
that fills every value and the bottleneck scan of every row, from before
the bounded sum search and the bottleneck screen, and the checked
dual-overlap area with its clipping fallback and the Voronoi-vertex scan of
shrunk_circle, from before the circumcentre quadrilateral and the
evaluator's list of Delaunay circumcircles, and the full scan of that list
and the per-point in-circle loop, from before shrunk_circle's stop at full
cover and geom's one-triangle in-circle scan.  ``flip``, which only tests
and the frozenset walk call, lives here too, and so do
``similarity_transform``, ``compare_bottleneck_lex`` and the every-site
``local_voronoi``, which only tests call.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice, permutations, product
from typing import Sequence

import numpy as np

from neardelaunay.aggregate import LEX_TOLERANCE, AggregationMode, ScoreVector, aggregate_sum
from neardelaunay.geom import (
    Circle,
    Orientation,
    Point,
    PointSet,
    Segment,
    SegmentSide,
    circular_segment_area,
    chord_overlap_length,
    circumcircle,
    in_circumcircle,
    inscribed_circle,
    orientation,
    polygon_area,
    validate_general_position,
)
from neardelaunay.delaunay import _proper_cross, delaunay
from neardelaunay.errors import InvalidConstraintEdges, NearDelaunayError, SiteOutsideCircle
from neardelaunay.metrics import (
    TWO_PI,
    EllipticalSegment,
    LocalVoronoiDiagram,
    ScoreOrientation,
    StraightSegment,
    _bisector_halfplane,
    _dist_point_segment,
    _ellipse_halfplane_arcs,
    _intersect_intervals,
    _arc_candidates,
    _every_other,
    _largest_contained_circle,
    _local_voronoi,
    _site_ellipse,
    _straight_candidates,
    lookup_metric,
)
from neardelaunay.triangulation import (
    DEFAULT_ENUMERATION_CAP,
    Triangulation,
    apex_map,
    apex_triangles,
    check_enumeration_cap,
    feasible_rows,
    flip_edge,
    satisfies,
    scan_triangulation,
    total_edge_length,
)


# --- similarity images, the bottleneck comparison and the full local Voronoi --
# Only tests use these, so they live here and not in the package.


class InvalidScale(NearDelaunayError):
    """A similarity transform was requested with a non-positive scale."""


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


class IncomparableScores(NearDelaunayError):
    """Score vectors for different metrics or decompositions were compared."""


class Comparison(Enum):
    A_CLOSER = "a_closer"
    B_CLOSER = "b_closer"
    EQUAL = "equal"


def compare_bottleneck_lex(a: ScoreVector, b: ScoreVector) -> Comparison:
    """Worst element first; the first entry differing by more than the
    tolerance decides, the better value winning."""
    if a.metric != b.metric or len(a.values) != len(b.values):
        raise IncomparableScores(
            f"cannot compare {a.metric} ({len(a.values)}) with {b.metric} ({len(b.values)})"
        )
    lower_better = a.orientation is ScoreOrientation.LOWER_BETTER
    for x, y in zip(a.worst_first(), b.worst_first()):
        if abs(x - y) <= LEX_TOLERANCE:
            continue
        if (x < y) == lower_better:
            return Comparison.A_CLOSER
        return Comparison.B_CLOSER
    return Comparison.EQUAL


def local_voronoi(c: Circle, inside_sites: Sequence[Point]) -> LocalVoronoiDiagram:
    """Locus of centers of maximal circles empty of the sites and contained
    in the given circle: elliptical arcs (circle boundary vs one site) and
    straight bisector pieces (two sites).  Every site is clipped by every
    other, so the sites need not be in general position;
    ``shrunk_circumcircle`` clips by Delaunay neighbours only."""
    return _local_voronoi(c, inside_sites, _every_other(len(inside_sites)))


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


def flip(ps: PointSet, tris: frozenset, edge) -> frozenset | None:
    """The triangle set with edge (u, v) flipped by
    :func:`~neardelaunay.triangulation.flip_edge`, or None."""
    apex = apex_map(sorted(tris))
    if flip_edge(ps.points, apex, edge) is None:
        return None
    return frozenset(apex_triangles(apex))



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


# --- triangulation validity by pairwise overlap tests -------------------------


def _triangles_overlap(pa, pb) -> bool:
    # Clip pa against pb's halfplanes; positive leftover area means overlap.
    # The area threshold scales with the triangles' own extent so the test
    # is translation-invariant.
    if orientation(*pb) is Orientation.CW:
        pb = (pb[0], pb[2], pb[1])
    poly = list(pa)
    pts = list(pa) + list(pb)
    scale = max(
        max(p[0] for p in pts) - min(p[0] for p in pts),
        max(p[1] for p in pts) - min(p[1] for p in pts),
    ) or 1.0
    for i in range(3):
        a, b = pb[i], pb[(i + 1) % 3]
        # inside is the left of a->b: n . x <= c with n the right normal
        n = (b[1] - a[1], a[0] - b[0])
        c = n[0] * a[0] + n[1] * a[1]
        poly = _clip(poly, n, c)
        if not poly:
            return False
    return polygon_area(poly) > 1e-12 * scale * scale


def pairwise_validate(t: Triangulation) -> bool:
    """True iff the triangle set is a triangulation of the point set's hull.

    Checks index sanity, non-degenerate triangles, full vertex usage, the
    Euler counts for 2n - h - 2 triangles and 3n - h - 3 edges, and pairwise
    disjointness of triangle interiors.
    """
    ps = t.point_set
    n = len(ps)
    pts = ps.points
    tris = t.triangles
    if len(set(tris)) != len(tris) or not tris:
        return False
    used = set()
    for tri in tris:
        i, j, k = tri
        if not (0 <= i < j < k < n):
            return False
        if orientation(pts[i], pts[j], pts[k]) is Orientation.COLLINEAR:
            return False
        used.update(tri)
    if len(used) != n:
        return False
    hull = ps.hull()
    h = len(hull)
    if len(tris) != 2 * n - h - 2:
        return False
    apex = t.apexes()
    if len(apex) != 3 * n - h - 3 or any(len(opp) > 2 for opp in apex.values()):
        return False
    # disjoint triangles inside the hull tile it iff the areas add up
    hull_area = polygon_area([pts[i] for i in hull])
    covered = sum(polygon_area([pts[i] for i in tri]) for tri in tris)
    if abs(covered - hull_area) > 1e-9 * hull_area:
        return False
    for a in range(len(tris)):
        ta = [pts[i] for i in tris[a]]
        for b in range(a + 1, len(tris)):
            tb = [pts[i] for i in tris[b]]
            if len(set(tris[a]) & set(tris[b])) == 3:
                return False
            if _triangles_overlap(ta, tb):
                return False
    return True


# --- the triangulation table by a bitmask walk --------------------------------

_ORACLE_BLOCK_ROWS = 1024


def _id_dtype(count: int):
    return np.int16 if count <= np.iinfo(np.int16).max + 1 else np.int32


def _flip_moves(ps: PointSet, triangles: list, tri_id: dict) -> list:
    """Per triangle id t, one (partners, flips) pair per edge of t: the bits
    of the higher-id triangles across that edge, and for each partner whose
    flip is legal, the XOR mask of its four triangle bits.

    Legality is the test :func:`flip_edge` makes: the new diagonal pq must have
    u and v strictly on opposite sides.
    """
    pts = ps.points
    n = len(pts)
    side = {
        (a, b): [orientation(pts[a], pts[b], w) for w in pts]
        for a, b in combinations(range(n), 2)
    }
    moves = []
    for t, (i, j, k) in enumerate(triangles):
        per_edge = []
        for u, v, p in ((i, j, k), (i, k, j), (j, k, i)):
            partners = 0
            flips = {}
            for q in range(n):
                if q in (u, v, p):
                    continue
                other = tri_id[tuple(sorted((u, v, q)))]
                if other < t:  # each pair is seen once, from its lower id
                    continue
                bit = 1 << other
                partners |= bit
                s = side[min(p, q), max(p, q)]
                su, sv = s[u], s[v]
                if Orientation.COLLINEAR not in (su, sv) and su is not sv:
                    flips[bit] = (
                        (1 << t)
                        | bit
                        | (1 << tri_id[tuple(sorted((u, p, q)))])
                        | (1 << tri_id[tuple(sorted((v, p, q)))])
                    )
            if partners:
                per_edge.append((partners, flips))
        moves.append(per_edge)
    return moves


def _walk_flip_graph(seed: int, moves: list) -> set[int]:
    """Every triangulation reachable from seed by flips, as triangle-id bitmasks."""
    seen = {seed}
    stack = [seed]
    while stack:
        cur = stack.pop()
        rest = cur
        while rest:
            low = rest & -rest
            rest ^= low
            for partners, flips in moves[low.bit_length() - 1]:
                across = cur & partners
                if across:
                    mask = flips.get(across)
                    if mask is not None:
                        nxt = cur ^ mask
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
    return seen


def _decode_rows(masks: set[int], id_count: int, width: int) -> np.ndarray:
    """Bitmasks -> ascending id rows, rows in lexicographic order."""
    nbytes = (id_count + 7) // 8
    it = iter(masks)
    blocks = []
    while True:
        buf = b"".join(m.to_bytes(nbytes, "little") for m in islice(it, _ORACLE_BLOCK_ROWS))
        if not buf:
            break
        bits = np.unpackbits(
            np.frombuffer(buf, np.uint8).reshape(-1, nbytes), axis=1, bitorder="little"
        )
        blocks.append(np.nonzero(bits)[1].astype(_id_dtype(id_count)).reshape(-1, width))
    rows = np.concatenate(blocks)
    return rows[np.lexsort(rows.T[::-1])]


@dataclass(frozen=True)
class OracleTable:
    """The ids and columns of a TriangulationTable, as an oracle derives
    them on its own."""

    triangles: list
    edge_pairs: list
    rows: np.ndarray
    edges: np.ndarray
    quads: np.ndarray
    max_degree: np.ndarray


def bitmask_table(ps: PointSet, cap: int = DEFAULT_ENUMERATION_CAP) -> OracleTable:
    """Every triangulation of ps as a table, by a depth-first walk of the flip
    graph over Python-int triangle bitmasks, then a block-wise argsort pass
    that derives the columns."""
    check_enumeration_cap(len(ps), cap)
    validate_general_position(ps)
    n = len(ps)
    triangles = list(combinations(range(n), 3))
    tri_id = {t: i for i, t in enumerate(triangles)}
    pairs = list(combinations(range(n), 2))
    edge_lut = np.full((n, n), -1, dtype=_id_dtype(len(pairs)))
    for e, (i, j) in enumerate(pairs):
        edge_lut[i, j] = edge_lut[j, i] = e
    seed = 0
    for t in scan_triangulation(ps).triangles:
        seed |= 1 << tri_id[t]
    masks = _walk_flip_graph(seed, _flip_moves(ps, triangles, tri_id))
    rows = _decode_rows(masks, len(triangles), seed.bit_count())
    del masks
    return OracleTable(triangles, pairs, rows, *_row_columns(ps, triangles, pairs, edge_lut, rows))


def _row_columns(ps: PointSet, triangles, pairs, edge_lut: np.ndarray, rows: np.ndarray):
    """Edge ids, quadrilateral codes and maximum degree of every row,
    derived block by block."""
    pts = ps.points
    n = len(pts)
    h = len(ps.hull())
    n_edges, n_interior = 3 * n - h - 3, 3 * n - 2 * h - 3
    # per triangle: its edges in apex_map insertion order, the vertex opposite each
    corners = np.array(triangles, dtype=np.intp)
    tri_edges = edge_lut[corners[:, [0, 0, 1]], corners[:, [1, 2, 2]]]
    tri_opp = corners[:, [2, 1, 0]]
    ends = np.array(pairs, dtype=np.intp)
    quad_dtype = _id_dtype(len(pairs) ** 2)

    count = len(rows)
    edges = np.empty((count, n_edges), dtype=edge_lut.dtype)
    quads = np.empty((count, n_interior), dtype=quad_dtype)
    max_deg = np.empty(count, dtype=np.int16)
    for lo in range(0, count, _ORACLE_BLOCK_ROWS):
        block = rows[lo : lo + _ORACLE_BLOCK_ROWS]
        b = len(block)
        seq = tri_edges[block].reshape(b, -1)  # every edge once per triangle
        opp = tri_opp[block].reshape(b, -1)
        perm = np.argsort(seq, axis=1, kind="stable")
        srt = np.take_along_axis(seq, perm, axis=1)
        first = np.ones(srt.shape, dtype=bool)
        first[:, 1:] = srt[:, 1:] != srt[:, :-1]
        edges[lo : lo + b] = srt[first].reshape(b, n_edges)
        # An interior edge's second occurrence; stable sorting keeps the
        # lower triangle, and with it the smaller opposing vertex p, first.
        again = ~first[:, 1:]
        p = np.take_along_axis(opp, perm[:, :-1], axis=1)[again]
        q = np.take_along_axis(opp, perm[:, 1:], axis=1)[again]
        uv = srt[:, 1:][again].astype(quad_dtype)
        quads[lo : lo + b] = (uv * len(pairs) + edge_lut[p, q]).reshape(b, n_interior)
        at = ends[edges[lo : lo + b]].reshape(b, -1) + n * np.arange(b)[:, None]
        max_deg[lo : lo + b] = np.bincount(at.ravel(), minlength=b * n).reshape(b, n).max(axis=1)
    return edges, quads, max_deg


# --- the triangulation table by a breadth-first numpy flip walk --------------

# Rows per block when deriving columns and flips; bounds the temporaries.
_WALK_BLOCK_ROWS = 256


def _legal_flips(ps: PointSet) -> list[tuple[int, int, int, int]]:
    """Every flip a triangulation of ps can make, as (u, v, p, q): triangles
    uvp and uvq, p left and q right of u -> v, become upq and vpq.

    Legality is the test :func:`flip_edge` makes: the new diagonal pq must have
    u and v strictly on opposite sides.  An end of a pair is collinear with
    it without asking ``orientation``, whose determinant there is exactly 0
    and would be recomputed in rationals.
    """
    pts = ps.points
    n = len(pts)
    side = {
        (a, b): [
            Orientation.COLLINEAR if w in (a, b) else orientation(pts[a], pts[b], pts[w])
            for w in range(n)
        ]
        for a, b in combinations(range(n), 2)
    }
    flips = []
    for (u, v), s in side.items():
        left = [w for w in range(n) if s[w] is Orientation.CCW]
        right = [w for w in range(n) if s[w] is Orientation.CW]
        for p, q in product(left, right):
            su, sv = side[min(p, q), max(p, q)][u], side[min(p, q), max(p, q)][v]
            # geom.separates on the table's values: calling it would redo
            # the orientations, over twice the table's calls at n = 12
            if su is not sv and Orientation.COLLINEAR not in (su, sv):
                flips.append((u, v, p, q))
    return flips


def _one_bit(bits: np.ndarray, words: int) -> np.ndarray:
    """Per bit index, a key of `words` uint64 words with only that bit set."""
    key = np.zeros((len(bits), words), dtype=np.uint64)
    key[np.arange(len(bits)), bits // 64] = np.uint64(1) << (bits % 64).astype(np.uint64)
    return key


def level_walk_table(ps: PointSet, cap: int = DEFAULT_ENUMERATION_CAP) -> OracleTable:
    """Enumerate every triangulation of ps once, by a breadth-first walk of
    the flip graph from the sweep triangulation, one level of rows at a
    time.  The flip graph of a point set is connected (Lawson, "Transforming
    triangulations", 1972), so the walk reaches every triangulation.

    Rows are keyed by their non-hull edges (see :class:`TriangulationTable`);
    a flip XORs the leaving and the entering edge's bits into the parent's
    key, and only the rows with new keys are built.
    """
    check_enumeration_cap(len(ps), cap)
    validate_general_position(ps)
    n = len(ps)
    triangles = list(combinations(range(n), 3))
    pairs = list(combinations(range(n), 2))
    n_pairs = len(pairs)
    corners = np.array(triangles, dtype=np.intp)
    ends = np.array(pairs, dtype=np.int32)
    tri_lut = np.full((n, n, n), -1, dtype=_id_dtype(len(triangles)))
    for perm in permutations(range(3)):
        tri_lut[tuple(corners[:, perm].T)] = np.arange(len(triangles))
    edge_lut = np.full((n, n), -1, dtype=_id_dtype(n_pairs))
    edge_lut[ends[:, 0], ends[:, 1]] = edge_lut[ends[:, 1], ends[:, 0]] = np.arange(n_pairs)
    # per triangle: its edges in apex_map insertion order, the vertex opposite each
    tri_edges = edge_lut[corners[:, [0, 0, 1]], corners[:, [1, 2, 2]]]
    tri_opp = corners[:, [2, 1, 0]].astype(edge_lut.dtype)
    incidence = np.zeros((n_pairs, n))  # edge x vertex, 1 at the edge's ends
    incidence[np.arange(n_pairs), ends[:, 0]] = incidence[np.arange(n_pairs), ends[:, 1]] = 1
    hull = np.array(ps.hull())
    h = len(hull)
    n_edges, n_interior = 3 * n - h - 3, 3 * n - 2 * h - 3
    quad_dtype = _id_dtype(n_pairs**2)

    # key bit of each non-hull edge; hull edges, in every row, get none
    bit = np.full(n_pairs, -1, dtype=np.intp)
    interior = np.ones(n_pairs, dtype=bool)
    interior[edge_lut[hull, np.roll(hull, -1)]] = False
    bit[interior] = np.arange(n_pairs - h)
    words = (n_pairs - h) // 64 + 1

    u, v, p, q = np.array(_legal_flips(ps), dtype=np.intp).reshape(-1, 4).T
    gone = np.stack([tri_lut[u, v, p], tri_lut[u, v, q]], axis=1)
    born = np.stack([tri_lut[u, p, q], tri_lut[v, p, q]], axis=1)
    n_tri = len(triangles)
    flip_at = np.full(n_tri * n_tri, -1, dtype=_id_dtype(len(u)))  # at lower * n_tri + higher
    flip_at[gone.min(axis=1).astype(np.intp) * n_tri + gone.max(axis=1)] = np.arange(len(u))
    flip_key = _one_bit(bit[edge_lut[u, v]], words) | _one_bit(bit[edge_lut[p, q]], words)

    def expand(block: np.ndarray):
        """The table columns of a block of rows, and each row's legal flips
        as (row in block, flip)."""
        b = len(block)
        seq = np.take(tri_edges, block, axis=0).reshape(b, -1)  # every edge once per triangle
        opp = np.take(tri_opp, block, axis=0).ravel()
        width = seq.shape[1]
        slot = np.arange(width, dtype=np.int32)
        at = (seq + np.arange(0, b * n_pairs, n_pairs, dtype=np.int32)[:, None]).ravel()
        # per (row, edge): 4 * (sum of its one or two slots) + its count
        tally = np.bincount(at, weights=np.tile(4 * slot + 1, b), minlength=b * n_pairs)
        degree = ((tally > 0).reshape(b, n_pairs) @ incidence).max(axis=1).astype(np.int16)
        tally = np.take(tally, at).astype(np.int32).reshape(b, width)
        step = (tally >> 2) - 2 * slot  # from an interior edge's slot to its other one
        # Rows ascend, so the first slot of an interior edge is in its lower
        # triangle: these with the hull edges are each edge once.
        lower = step > 0
        edges = np.sort(seq[lower | (tally & 3 == 1)].reshape(b, n_edges), axis=1)
        first = np.flatnonzero(lower)  # flat (row, slot) indices
        second = first + np.take(step, first)
        pq = np.take(edge_lut, np.take(opp, first) * n + np.take(opp, second))
        quads = (np.take(seq, first).astype(quad_dtype) * n_pairs + pq).reshape(b, n_interior)
        quads.sort(axis=1)
        # slot s of a row is in its triangle s // 3, so flat index // 3 is flat in block
        tri = block.ravel().astype(np.intp)
        flips = np.take(flip_at, np.take(tri, first // 3) * n_tri + np.take(tri, second // 3))
        legal = flips >= 0
        return (edges, quads, degree), first[legal] // width, flips[legal]

    rows = np.array([[tri_lut[tri] for tri in scan_triangulation(ps).triangles]])
    seed_bits = bit[np.unique(tri_edges[rows])]
    keys = np.bitwise_or.reduce(_one_bit(seed_bits[seed_bits >= 0], words), 0, keepdims=True)
    before = keys[:0]
    found = ([], [], [], [])  # per column: its part for every level, rows first
    while len(rows):
        parent, flips, blocks = [], [], ([], [], [])
        for lo in range(0, len(rows), _WALK_BLOCK_ROWS):
            columns, r, f = expand(rows[lo : lo + _WALK_BLOCK_ROWS])
            for part, column in zip(blocks, columns):
                part.append(column)
            parent.append(r + lo)
            flips.append(f)
        for part, column in zip(found, (rows, *map(np.concatenate, blocks))):
            part.append(column)
        del blocks
        parent, flips = np.concatenate(parent), np.concatenate(flips)
        # A flip moves one step in the flip graph, so a neighbour of this
        # breadth-first level lies in the level before, this one or the
        # next: only those two earlier levels can hold a candidate already.
        pool = np.concatenate([before, keys, keys[parent] ^ flip_key[flips]])
        order = np.lexsort(pool.T)  # stable, so a known key comes first
        pool = pool[order]
        fresh = np.ones(len(pool), dtype=bool)
        fresh[1:] = (pool[1:] != pool[:-1]).any(axis=1)
        fresh &= order >= len(before) + len(keys)
        pick = order[fresh] - (len(before) + len(keys))
        before, keys = keys, pool[fresh]
        parent, flips = parent[pick], flips[pick]
        grown = rows[parent]
        rows = np.where(
            grown == gone[flips, :1],
            born[flips, :1],
            np.where(grown == gone[flips, 1:], born[flips, 1:], grown),
        )
        rows.sort(axis=1)
    order = np.lexsort(np.concatenate(found[0]).T[::-1])
    columns = []
    for part in found:  # one column at a time, each freed once permuted
        column = np.concatenate(part)
        part.clear()
        columns.append(column[order])
        del column
    return OracleTable(triangles, pairs, *columns)


# --- Delaunay and CDT construction over frozensets of triangles ---------------


def frozenset_flip_partner(tris: frozenset, edge) -> tuple[int, int] | None:
    """Opposing vertices (p, q) of an edge if it is interior, else None,
    by a scan of every triangle."""
    u, v = edge
    opp = [i for t in tris if u in t and v in t for i in t if i != u and i != v]
    if len(opp) != 2:
        return None
    return opp[0], opp[1]


def frozenset_flip(ps: PointSet, tris: frozenset, edge) -> frozenset | None:
    """Replace interior edge (u, v) with the opposite diagonal (p, q), or
    None when the edge is not interior or the quadrilateral is not strictly
    convex."""
    partner = frozenset_flip_partner(tris, edge)
    if partner is None:
        return None
    u, v = edge
    p, q = partner
    pts = ps.points
    su = orientation(pts[p], pts[q], pts[u])
    sv = orientation(pts[p], pts[q], pts[v])
    if su is Orientation.COLLINEAR or sv is Orientation.COLLINEAR or su is sv:
        return None
    old1 = tuple(sorted((u, v, p)))
    old2 = tuple(sorted((u, v, q)))
    new1 = tuple(sorted((u, p, q)))
    new2 = tuple(sorted((v, p, q)))
    return (tris - {old1, old2}) | {new1, new2}


def _frozenset_legalize(ps: PointSet, tris: frozenset, frozen: frozenset) -> frozenset:
    pts = ps.points
    pending = set()
    for i, j, k in tris:
        pending.update(((i, j), (i, k), (j, k)))
    pending -= frozen
    while pending:
        edge = pending.pop()
        partner = frozenset_flip_partner(tris, edge)
        if partner is None:
            continue
        u, v = edge
        p, q = partner
        if not in_circumcircle(pts[u], pts[v], pts[p], pts[q]):
            continue
        flipped = frozenset_flip(ps, tris, edge)
        if flipped is None:
            continue
        tris = flipped
        for e in ((u, p), (u, q), (v, p), (v, q)):
            e = (min(e), max(e))
            if e not in frozen:
                pending.add(e)
    return tris


def _frozenset_insert_edge(ps: PointSet, tris: frozenset, edge) -> frozenset:
    pts = ps.points
    u, v = edge
    crossing = [
        e
        for e in {tuple(sorted((i, j))) for t in tris for i in t for j in t if i < j}
        if _proper_cross(pts[u], pts[v], pts[e[0]], pts[e[1]])
    ]
    queue = deque(sorted(crossing))
    guard = 0
    limit = 10 * (len(ps) ** 4 + 100)
    while queue:
        guard += 1
        if guard > limit:
            raise RuntimeError(f"edge insertion did not converge for {edge}")
        e = queue.popleft()
        flipped = frozenset_flip(ps, tris, e)
        if flipped is None:
            queue.append(e)
            continue
        partner = frozenset_flip_partner(tris, e)
        tris = flipped
        new_edge = (min(partner), max(partner))
        if _proper_cross(pts[u], pts[v], pts[new_edge[0]], pts[new_edge[1]]):
            queue.append(new_edge)
    return tris


def frozenset_delaunay(ps: PointSet) -> Triangulation:
    """Delaunay triangulation by flips over a frozenset of triangles, each
    flip's partner found by scanning every triangle."""
    validate_general_position(ps)
    seed = frozenset(scan_triangulation(ps).triangles)
    return Triangulation(ps, _frozenset_legalize(ps, seed, frozenset()))


def frozenset_cdt(ps: PointSet, required) -> Triangulation:
    """Constrained Delaunay triangulation over frozensets, with the same
    errors as the package's cdt."""
    validate_general_position(ps)
    pts = ps.points
    norm = set()
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
    tris = frozenset(frozenset_delaunay(ps).triangles)
    for e in edges:
        if not any(e[0] in t and e[1] in t for t in tris):
            tris = _frozenset_insert_edge(ps, tris, e)
    return Triangulation(ps, _frozenset_legalize(ps, tris, frozenset(edges)))


# --- constrained search by a scan over candidates ------------------------------


def best_by_scan(candidates, constraint, metric, mode, dt_length, evaluator):
    """Best candidate that satisfies the constraint, scoring each with
    Evaluator.values; a later candidate replaces the best only when strictly
    better, so ties keep the earliest."""
    orientation = lookup_metric(metric).orientation
    lower_better = orientation is ScoreOrientation.LOWER_BETTER
    best = best_sum = best_vec = None
    for t in candidates:
        if not satisfies(t, constraint, dt_length):
            continue
        sv = ScoreVector(metric, orientation, evaluator.values(t, metric))
        if mode is AggregationMode.SUM:
            value = aggregate_sum(sv)
            if best is None or (value < best_sum if lower_better else value > best_sum):
                best, best_sum = t, value
        elif best is None or compare_bottleneck_lex(sv, best_vec) is Comparison.A_CLOSER:
            best, best_vec = t, sv
    return best


# --- the search before dense values and the candidate filter -------------------

# Rows per block of the oracle's sum and bottleneck scans.
_SCAN_ROWS = 1024


def scan_best_sum(scores: np.ndarray, lower_better: bool) -> int:
    """Row with the best math.fsum, by fsum on every row; a later row wins
    only when strictly better, so ties keep the earliest."""
    best, best_sum = 0, None
    for lo in range(0, len(scores), _SCAN_ROWS):
        for row, values in enumerate(scores[lo : lo + _SCAN_ROWS].tolist(), lo):
            value = math.fsum(values)
            if best_sum is None or (value < best_sum if lower_better else value > best_sum):
                best, best_sum = row, value
    return best


def block_best_bottleneck(scores: np.ndarray, lower_better: bool) -> int:
    """The scan of compare_bottleneck_lex over the rows, comparing fixed
    blocks of 1,024 rows with the best; ties keep the earliest."""
    worst_first = np.sort(scores, axis=1)
    if lower_better:
        worst_first = worst_first[:, ::-1]
    if worst_first.shape[1] == 0:
        return 0
    best, lo = 0, 1
    while lo < len(worst_first):
        block = worst_first[lo : lo + _SCAN_ROWS]
        ref = worst_first[best]
        differs = ~(np.abs(block - ref) <= LEX_TOLERANCE)
        at = differs.argmax(axis=1)
        x = np.take_along_axis(block, at[:, None], axis=1)[:, 0]
        closer = np.flatnonzero(differs.any(axis=1) & ((x < ref[at]) == lower_better))
        if len(closer):
            best = lo + int(closer[0])
            lo = best + 1
        else:
            lo += len(block)
    return best


def unique_best_triangulation(evaluator, constraint, metric, mode):
    """best_triangulation with element values looked up through np.unique
    and the two scans above."""
    lower_better = lookup_metric(metric).orientation is ScoreOrientation.LOWER_BETTER
    table = evaluator.table()
    dt_length = total_edge_length(delaunay(table.point_set))
    feasible = np.flatnonzero(feasible_rows(table, constraint, dt_length))
    if not len(feasible):
        return None
    ids, element = table.element_ids(lookup_metric(metric).decomposition)
    ids = ids[feasible]
    used, at = np.unique(ids.ravel(), return_inverse=True)
    values = np.array(
        [evaluator.element_value(metric, element(e)) for e in used.tolist()], dtype=float
    )
    scores = values[at].reshape(ids.shape)
    if mode is AggregationMode.SUM:
        best = scan_best_sum(scores, lower_better)
    else:
        best = block_best_bottleneck(scores, lower_better)
    return table.triangulation(int(feasible[best]))


# --- the search before bounds and the bottleneck screen -------------------------

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def filtered_best_sum(scores: np.ndarray, lower_better: bool) -> int:
    """Row with the best exact sum (math.fsum), every entry a value; fsum
    runs only on the rows whose numpy row sum, widened by its error bound,
    can reach the best row's.  Ties keep the earliest."""
    s = scores.sum(axis=1)
    err = scores.shape[1] * _EPS * np.abs(scores).sum(axis=1) + _TINY
    if lower_better:
        candidate = ~(s - err > np.min(s + err, initial=np.inf))
    else:
        candidate = ~(s + err < np.max(s - err, initial=-np.inf))
    rows = np.flatnonzero(candidate)
    best, best_sum = 0, None
    for row, values in zip(rows.tolist(), scores[rows].tolist()):
        value = math.fsum(values)
        if best_sum is None or (value < best_sum if lower_better else value > best_sum):
            best, best_sum = row, value
    return best


def unscreened_best_bottleneck(scores: np.ndarray, lower_better: bool) -> int:
    """The scan of compare_bottleneck_lex over every row, in blocks of 8
    rows after each closer row that double, up to 1,024 rows, while none
    is found; ties keep the earliest."""
    worst_first = np.sort(scores, axis=1)
    if lower_better:
        worst_first = worst_first[:, ::-1]
    if worst_first.shape[1] == 0:
        return 0
    best, lo, size = 0, 1, 8
    while lo < len(worst_first):
        block = worst_first[lo : lo + size]
        ref = worst_first[best]
        differs = ~(np.abs(block - ref) <= LEX_TOLERANCE)
        at = differs.argmax(axis=1)
        x = np.take_along_axis(block, at[:, None], axis=1)[:, 0]
        closer = np.flatnonzero(differs.any(axis=1) & ((x < ref[at]) == lower_better))
        if len(closer):
            best = lo + int(closer[0])
            lo, size = best + 1, 8
        else:
            lo, size = lo + len(block), min(2 * size, 1024)
    return best


def full_fill_best_triangulation(evaluator, constraint, metric, mode):
    """best_triangulation with the value of every element of the feasible
    rows, one Evaluator.element_value per id, and the two searches above."""
    lower_better = lookup_metric(metric).orientation is ScoreOrientation.LOWER_BETTER
    table = evaluator.table()
    dt_length = total_edge_length(delaunay(table.point_set))
    feasible = np.flatnonzero(feasible_rows(table, constraint, dt_length))
    if not len(feasible):
        return None
    ids, element = table.element_ids(lookup_metric(metric).decomposition)
    ids = ids[feasible]
    values = {e: evaluator.element_value(metric, element(e)) for e in np.unique(ids).tolist()}
    scores = np.array([[values[e] for e in row] for row in ids.tolist()], dtype=float)
    if mode is AggregationMode.SUM:
        best = filtered_best_sum(scores, lower_better)
    else:
        best = unscreened_best_bottleneck(scores, lower_better)
    return table.triangulation(int(feasible[best]))


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


def _line_intersection(n1, c1, n2, c2):
    det = n1[0] * n2[1] - n1[1] * n2[0]
    if det == 0.0:
        return None
    return Point((c1 * n2[1] - c2 * n1[1]) / det, (n1[0] * c2 - n2[0] * c1) / det)


def checked_dual_overlap_area(pu, pv, pp, pq) -> tuple[float, bool]:
    """The package's overlap area of p's and q's cells from before the
    circumcentre quadrilateral was proved to be the region, and whether it
    fell back.  It took that quadrilateral only when its corners turned one
    way and lay in all four bisector halfplanes; otherwise it clipped a box
    around every pairwise bisector intersection."""
    ox = (pu[0] + pv[0] + pp[0] + pq[0]) / 4.0
    oy = (pu[1] + pv[1] + pp[1] + pq[1]) / 4.0
    u, v, p, q = (Point(w[0] - ox, w[1] - oy) for w in (pu, pv, pp, pq))
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
    turns = {orientation(poly[i], poly[(i + 1) % 4], poly[(i + 2) % 4]) for i in range(4)}
    ok = len(turns) == 1 and Orientation.COLLINEAR not in turns
    for n, c in halfplanes if ok else ():
        bound = 1e-9 * max(1.0, math.hypot(*n)) * max(1.0, scale)
        if any(n[0] * x + n[1] * y - c > bound for x, y in poly):
            ok = False
            break
    if ok:
        return polygon_area(poly), False
    corners = [cp, cq, mu, mv]
    for i in range(4):
        for j in range(i + 1, 4):
            w = _line_intersection(*halfplanes[i], *halfplanes[j])
            if w is not None and math.isfinite(w[0]) and math.isfinite(w[1]):
                corners.append(w)
    xs = [w[0] for w in corners]
    ys = [w[1] for w in corners]
    pad = max(max(xs) - min(xs), max(ys) - min(ys), math.dist(u, v)) + 1.0
    region = [
        (min(xs) - pad, min(ys) - pad),
        (max(xs) + pad, min(ys) - pad),
        (max(xs) + pad, max(ys) + pad),
        (min(xs) - pad, max(ys) + pad),
    ]
    for n, c in halfplanes:
        region = _clip(region, n, c)
        if not region:
            return 0.0, True
    return polygon_area(region), True


# --- shrunk circle over the Voronoi vertices ------------------------------------


def voronoi_vertex_shrunk_circle(vd, edge) -> float:
    """shrunk_circle as the package computed it from ``voronoi(ps)``: the
    longest chord of the edge in the empty circle of any Voronoi vertex,
    over the edge length."""
    seg = Segment(vd.point_set[edge[0]], vd.point_set[edge[1]])
    best = 0.0
    for vert in vd.vertices:
        best = max(best, chord_overlap_length(Circle(vert.point, vert.radius), seg))
    return min(1.0, max(0.0, best / math.dist(seg.a, seg.b)))


def full_scan_shrunk_circle(ps: PointSet, edge) -> float:
    """shrunk_circle as the package computed it from the list of Delaunay
    circumcircles: the longest chord of the edge in every one of them, in
    the triangles' order, over the edge length."""
    pts = ps.points
    seg = Segment(pts[edge[0]], pts[edge[1]])
    best = 0.0
    for t in delaunay(ps).triangles:
        overlap = chord_overlap_length(circumcircle(*(pts[i] for i in t)), seg)
        if overlap > best:
            best = overlap
    return min(1.0, max(0.0, best / math.dist(seg.a, seg.b)))


# --- points inside a circumcircle, one predicate call each ----------------------


def per_point_inside_circumcircle(pts, tri) -> list[int]:
    """Ascending indices of the points strictly inside the triangle's
    circumcircle, one scalar ``in_circumcircle`` call per other point, as
    the package listed them before geom's one-triangle scan."""
    corners = tuple(pts[i] for i in tri)
    return [i for i, p in enumerate(pts) if i not in tri and in_circumcircle(*corners, p)]


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


# --- local Voronoi diagram, clipped in index order ---------------------------


def local_voronoi_in_index_order(c: Circle, inside_sites) -> LocalVoronoiDiagram:
    """The package's local_voronoi before nearest-first clipping: every arc
    and bisector is clipped by every other site in index order, with each
    bisector halfplane recomputed where it is used."""
    o, big_r = c
    sites = tuple(Point(float(p[0]), float(p[1])) for p in inside_sites)
    for s in sites:
        if math.dist(o, s) > big_r * (1.0 + 1e-9):
            raise SiteOutsideCircle(f"site {s} is not inside {c}")
    segments = []
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


def all_pairs_shrunk_circumcircle(ps: PointSet, tri) -> float:
    """The package's shrunk_circumcircle value before Delaunay-neighbour
    clipping: the local diagram clips every site by every other site, in
    index order."""
    pts = ps.points
    corners = tuple(pts[i] for i in tri)
    sites = [p for i, p in enumerate(pts) if i not in tri and in_circumcircle(*corners, p)]
    if not sites:
        return 1.0
    return _largest_contained_circle(
        corners, local_voronoi_in_index_order(circumcircle(*corners), sites)
    )


def full_search_largest_contained_circle(corners, diagram: LocalVoronoiDiagram) -> float:
    """The package's search for the shrunk_circumcircle value before its
    screen: every candidate of every piece, in diagram order, against the
    best radius so far."""
    circ = diagram.circle
    big_r = circ.radius
    r2 = big_r * big_r
    inc = inscribed_circle(*corners)
    sides = [
        (corners[0], corners[1]),
        (corners[1], corners[2]),
        (corners[2], corners[0]),
    ]
    candidates = []
    for seg in diagram.segments:
        if isinstance(seg, StraightSegment):
            candidates.extend((x, r) for r, x in _straight_candidates(seg, sides))
        else:
            candidates.extend(
                (seg.ellipse.point_at(th), r) for r, th in _arc_candidates(seg, sides)
            )
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
