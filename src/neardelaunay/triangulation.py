"""Triangulations over a point set: representation, validation, enumeration.

A triangulation is stored canonically: each triangle as an ascending index
triple, the triple set sorted lexicographically.  That single ordering
defines determinism for enumeration, tie-breaking and file output.

Enumeration builds one integer table per point set (:class:`TriangulationTable`):
every triangulation as a row of triangle ids, with the per-row columns that
constraints filter on and that scores are gathered by.  One breadth-first
walk of the flip graph finds the rows a level at a time, in numpy, and
derives each row's columns when it expands the row; a row's key is the
bitmask of its non-hull edges, which determines the triangulation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .errors import EnumerationTooLarge, MismatchedPointSets, NearDelaunayError
from .geom import (
    Orientation,
    Point,
    PointSet,
    orientation,
    separates,
    validate_general_position,
)

Triple = tuple[int, int, int]
EdgeKey = tuple[int, int]
ApexMap = dict[EdgeKey, tuple[int, ...]]  # see apex_map

DEFAULT_ENUMERATION_CAP = 12


def _canon_triples(triangles) -> tuple[Triple, ...]:
    return tuple(sorted(tuple(sorted(t)) for t in triangles))


def apex_map(triangles) -> ApexMap:
    """Sorted edge -> opposite ("apex") vertices, one per triple in the order
    given, so ascending for canonical triangles.  Edges enter as (i, j),
    (i, k), (j, k) of each ascending (i, j, k)."""
    m: ApexMap = {}
    for i, j, k in triangles:
        for e, w in (((i, j), k), ((i, k), j), ((j, k), i)):
            m[e] = m.get(e, ()) + (w,)
    return m


def apex_triangles(apex: ApexMap) -> set[Triple]:
    """The ascending triangles an apex map describes."""
    return {tuple(sorted((u, v, w))) for (u, v), ws in apex.items() for w in ws}


class Triangulation:
    """Immutable triangle set over a PointSet; its apex map is built on first use."""

    __slots__ = ("point_set", "triangles", "_apexes", "_neighbours", "_length", "_degree")

    def __init__(self, point_set: PointSet, triangles):
        self.point_set = point_set
        self.triangles: tuple[Triple, ...] = _canon_triples(triangles)
        self._apexes: ApexMap | None = None
        self._neighbours: tuple[tuple[int, ...], ...] | None = None
        self._length: float | None = None
        self._degree: int | None = None

    def apexes(self) -> ApexMap:
        """Sorted edge -> opposite vertices, ascending (:func:`apex_map`)."""
        if self._apexes is None:
            self._apexes = apex_map(self.triangles)
        return self._apexes

    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Each point's neighbours along the edges, built on first use."""
        if self._neighbours is None:
            adjacent: list[list[int]] = [[] for _ in self.point_set.points]
            for u, v in self.apexes():
                adjacent[u].append(v)
                adjacent[v].append(u)
            self._neighbours = tuple(map(tuple, adjacent))
        return self._neighbours

    def edges(self) -> tuple[EdgeKey, ...]:
        return tuple(sorted(self.apexes()))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.apexes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Triangulation)
            and self.point_set == other.point_set
            and self.triangles == other.triangles
        )

    def __hash__(self) -> int:
        return hash((self.point_set, self.triangles))

    def __repr__(self) -> str:
        return f"Triangulation({len(self.triangles)} triangles)"


@dataclass(frozen=True)
class Quadrilateral:
    """An interior edge (u, v) plus the opposing vertices (p, q) of its two triangles."""

    point_set: PointSet
    u: int
    v: int
    p: int
    q: int

    def __post_init__(self):
        if not separates(*self.coords()):
            raise ValueError(
                f"opposing vertices {self.p}, {self.q} must lie strictly on "
                f"opposite sides of edge ({self.u}, {self.v})"
            )

    def coords(self) -> tuple[Point, Point, Point, Point]:
        pts = self.point_set.points
        return pts[self.u], pts[self.v], pts[self.p], pts[self.q]

    def key(self) -> tuple[EdgeKey, EdgeKey]:
        return (
            (min(self.u, self.v), max(self.u, self.v)),
            (min(self.p, self.q), max(self.p, self.q)),
        )


# --- constraints -----------------------------------------------------------


@dataclass(frozen=True)
class RequiredEdges:
    edges: frozenset[EdgeKey]

    def __init__(self, edges):
        norm = frozenset((min(i, j), max(i, j)) for i, j in edges)
        object.__setattr__(self, "edges", norm)


@dataclass(frozen=True)
class MinTotalLength:
    """Total edge length at least factor times the Delaunay total length."""

    factor: float
    edges: ClassVar[frozenset[EdgeKey]] = frozenset()  # requires no edge

    def __post_init__(self):
        if not self.factor > 0:
            raise NearDelaunayError("length factor must be positive")


@dataclass(frozen=True)
class MaxTotalLength:
    factor: float
    edges: ClassVar[frozenset[EdgeKey]] = frozenset()

    def __post_init__(self):
        if not self.factor > 0:
            raise NearDelaunayError("length factor must be positive")


@dataclass(frozen=True)
class MaxDegree:
    bound: int
    edges: ClassVar[frozenset[EdgeKey]] = frozenset()

    def __post_init__(self):
        if self.bound < 3:
            raise NearDelaunayError("degree bound must be at least 3")


Constraint = RequiredEdges | MinTotalLength | MaxTotalLength | MaxDegree


def strict_index(i) -> int:
    """``operator.index(i)``, with bools rejected too (TypeError): the rule
    for point indices and integer spec fields, so 1.5, "1" and True are
    not read as an index."""
    if isinstance(i, bool):
        raise TypeError(f"{i!r} is not an index")
    return operator.index(i)


def _index_pairs(edges) -> list[EdgeKey]:
    return [(strict_index(i), strict_index(j)) for i, j in edges]


def _number(x) -> float:
    """An int or a float as a float; TypeError for a bool, a string or anything else."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


# Spec entry type -> constraint class, the entry's value field, its default,
# the conversion of the value and what the conversion expects.
CONSTRAINT_FIELDS = {
    "required_edges": (RequiredEdges, "edges", None, _index_pairs, "a list of index pairs"),
    "min_total_length": (MinTotalLength, "factor", 1.2, _number, "a number"),
    "max_total_length": (MaxTotalLength, "factor", 0.8, _number, "a number"),
    "max_degree": (MaxDegree, "bound", 5, strict_index, "an integer"),
}


def parse_constraint(entry: dict) -> Constraint:
    """The constraint of a spec entry ``{"type": ..., field: value}``.

    The field is "edges" for required_edges (point index pairs, no default),
    "factor" for min_total_length and max_total_length (default 1.2 and
    0.8) and "bound" for max_degree (default 5).  Indices and the bound
    must be ints and the factor an int or a float, bools excepted.  A
    malformed entry raises NearDelaunayError.
    """
    if "type" not in entry:
        raise NearDelaunayError(f"constraint entry needs a type: {entry}")
    kind = entry["type"]
    if not isinstance(kind, str) or kind not in CONSTRAINT_FIELDS:
        raise NearDelaunayError(f"unknown constraint type {kind!r}")
    cls, key, default, convert, expected = CONSTRAINT_FIELDS[kind]
    value = entry.get(key, default)
    try:
        value = convert(value)
    except (TypeError, ValueError, OverflowError):
        raise NearDelaunayError(f"{key} {value!r} is not {expected}") from None
    return cls(value)


# --- queries ---------------------------------------------------------------


def interior_quadrilaterals(t: Triangulation) -> list[Quadrilateral]:
    """One quadrilateral per non-hull edge, ordered by edge."""
    quads = []
    for (u, v), opp in sorted(t.apexes().items()):
        if len(opp) == 2:
            quads.append(Quadrilateral(t.point_set, u, v, *opp))
    return quads


class Decomposition(Enum):
    """The elements a metric scores: interior-edge quadrilaterals, edges or triangles."""

    QUADRILATERAL = "quadrilateral"
    EDGE = "edge"
    TRIANGLE = "triangle"


def elements(t: Triangulation, kind: Decomposition) -> tuple:
    """Elements in canonical order: (u, v, p, q) per interior edge uv, p < q
    checked to lie on opposite sides; (u, v) per edge; or the triangles."""
    if kind is Decomposition.QUADRILATERAL:
        return tuple((q.u, q.v, q.p, q.q) for q in interior_quadrilaterals(t))
    if kind is Decomposition.EDGE:
        return t.edges()
    return t.triangles


def total_edge_length(t: Triangulation) -> float:
    if t._length is None:
        # Left to right in apex_map order, plain float additions, which the
        # table's length column repeats (sum() compensates from Python 3.12).
        pts = t.point_set.points
        total = 0.0
        for i, j in t.apexes():
            total += math.dist(pts[i], pts[j])
        t._length = total
    return t._length


def max_degree(t: Triangulation) -> int:
    if t._degree is None:
        deg: dict[int, int] = {}
        for i, j in t.apexes():
            deg[i] = deg.get(i, 0) + 1
            deg[j] = deg.get(j, 0) + 1
        t._degree = max(deg.values())
    return t._degree


def satisfies(t: Triangulation, c: Constraint, dt_length: float) -> bool:
    """Check a constraint; dt_length is the Delaunay triangulation's total length."""
    if isinstance(c, RequiredEdges):
        return all(e in t.apexes() for e in c.edges)
    if isinstance(c, MinTotalLength):
        return total_edge_length(t) >= c.factor * dt_length
    if isinstance(c, MaxTotalLength):
        return total_edge_length(t) <= c.factor * dt_length
    if isinstance(c, MaxDegree):
        return max_degree(t) <= c.bound
    raise TypeError(f"unknown constraint {c!r}")


def feasible_rows(table: "TriangulationTable", c: Constraint, dt_length: float) -> np.ndarray:
    """Boolean mask of the table rows that satisfy c, by the comparisons of
    :func:`satisfies` on the table's columns."""
    if isinstance(c, RequiredEdges):
        mask = np.ones(len(table), dtype=bool)
        for e in c.edges:
            eid = table.edge_index.get(e)
            if eid is None:
                return np.zeros(len(table), dtype=bool)
            mask &= (table.edges == eid).any(axis=1)
        return mask
    if isinstance(c, MinTotalLength):
        return table.length >= c.factor * dt_length
    if isinstance(c, MaxTotalLength):
        return table.length <= c.factor * dt_length
    if isinstance(c, MaxDegree):
        return table.max_degree <= c.bound
    raise TypeError(f"unknown constraint {c!r}")


def edge_diff(t1: Triangulation, t2: Triangulation) -> set[EdgeKey]:
    """Edges of t1 that are absent from t2."""
    if t1.point_set != t2.point_set:
        raise MismatchedPointSets("triangulations are over different point sets")
    return set(t1.apexes()) - set(t2.apexes())


def validate(t: Triangulation) -> bool:
    """True iff the triangle set is a triangulation of the point set: every
    index in range, every point used, and per edge of the apex map

    * a hull edge (consecutive entries of ``ps.hull()``) lies in exactly
      one triangle;
    * every other edge lies in exactly two, whose apexes it strictly
      separates (:func:`~neardelaunay.geom.separates`).

    One pass over the apex map, deciding with the exact ``orientation``
    only: O(T + E) time.  A point inside a hull edge, which general
    position excludes, leaves that hull edge uncovered: False.

    Lemma (the covering view of De Loera, Rambau and Santos,
    *Triangulations*, 2010): when no point lies inside a hull edge, these
    conditions hold iff the triangles triangulate the hull with the points
    as vertices.  Only if is plain.  If: let f(x) count the triangles
    containing a point x on no edge's line.  f is constant off the edges,
    and crossing a line at x changes it by the sum, over the edges through
    x, of their triangles on the side entered minus those on the side
    left.  A non-hull edge adds 0, its two triangles lying on opposite
    sides; a hull edge adds 1 on entering the hull, as every point lies on
    its inner side.  So f is 0 outside the hull and 1 inside it: the
    interiors tile the hull.  Nor can a point lie inside a triangle, or
    inside an edge it does not end: its own triangles cover a sector
    around it, which would overlap that triangle or one of that edge's.
    So the triangles meet in common faces.

    A degenerate triangle xyz, y between x and z, fails the edge test, so
    none needs a test of its own.  Either xz is not a hull edge: its apex y
    is collinear with it.  Or xz is a hull edge: then xy is not, as z lies
    on its line beyond y, and its apex z is collinear with it.
    """
    ps = t.point_set
    n = len(ps)
    pts = ps.points
    used = set()
    for tri in t.triangles:
        i, j, k = tri
        if not (0 <= i < j < k < n):
            return False
        used.update(tri)
    if len(used) != n:
        return False
    apex = t.apexes()
    hull = ps.hull()
    hull_edges = {(min(e), max(e)) for e in zip(hull, hull[1:] + hull[:1])}
    if any(len(apex.get(e, ())) != 1 for e in hull_edges):
        return False
    return all(
        len(opp) == 2 and separates(pts[u], pts[v], pts[opp[0]], pts[opp[1]])
        for (u, v), opp in apex.items()
        if (u, v) not in hull_edges
    )


# --- flips and enumeration -------------------------------------------------


def flip_edge(pts: Sequence[Point], apex: ApexMap, edge: EdgeKey) -> EdgeKey | None:
    """Flip interior edge (u, v) of an ascending apex map in place to the
    opposite diagonal (p, q) and return (p, q).  Returns None, leaving the
    map untouched, for an absent or hull edge or a quadrilateral that is not
    strictly convex (the flip would fold over)."""
    opp = apex.get(edge)
    if opp is None or len(opp) != 2:
        return None
    u, v = edge
    p, q = opp
    if not separates(pts[p], pts[q], pts[u], pts[v]):
        return None
    del apex[edge]
    # side (a, x) swaps apex b, the old diagonal's far end, for y
    for a, b, x, y in ((u, v, p, q), (u, v, q, p), (v, u, p, q), (v, u, q, p)):
        e = (a, x) if a < x else (x, a)
        apex[e] = tuple(sorted(y if w == b else w for w in apex[e]))
    apex[p, q] = edge
    return p, q


def flip(ps: PointSet, tris: frozenset[Triple], edge: EdgeKey) -> frozenset[Triple] | None:
    """The triangle set with edge (u, v) flipped by :func:`flip_edge`, or None."""
    apex = apex_map(sorted(tris))
    if flip_edge(ps.points, apex, edge) is None:
        return None
    return frozenset(apex_triangles(apex))


def scan_triangulation(ps: PointSet) -> Triangulation:
    """Some valid triangulation: insert points in lexicographic order,
    connecting each new point to the hull edges it sees."""
    validate_general_position(ps)
    pts = ps.points
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    a, b, c = order[0], order[1], order[2]
    tris = {tuple(sorted((a, b, c)))}
    if orientation(pts[a], pts[b], pts[c]) is Orientation.CCW:
        hull = [a, b, c]
    else:
        hull = [a, c, b]
    for idx in order[3:]:
        p = pts[idx]
        m = len(hull)
        visible = [
            orientation(pts[hull[i]], pts[hull[(i + 1) % m]], p) is Orientation.CW
            for i in range(m)
        ]
        for i in range(m):
            if visible[i]:
                tris.add(tuple(sorted((hull[i], hull[(i + 1) % m], idx))))
        # replace the visible chain by the new point
        start = next(i for i in range(m) if visible[i] and not visible[i - 1])
        new_hull = [hull[start]]
        i = start
        while visible[i]:
            i = (i + 1) % m
        new_hull.append(idx)
        while i != start:
            new_hull.append(hull[i])
            i = (i + 1) % m
        hull = new_hull
    return Triangulation(ps, tris)


# --- the triangulation table ------------------------------------------------

# Rows per block when deriving columns and flips; bounds the temporaries.
_BLOCK_ROWS = 256


def _id_dtype(count: int):
    """Smallest signed integer type holding the ids 0 .. count - 1."""
    return np.int16 if count <= np.iinfo(np.int16).max + 1 else np.int32


def check_enumeration_cap(ps: PointSet, cap: int) -> None:
    """Refuse to enumerate a point set larger than the cap."""
    if len(ps) > cap:
        raise EnumerationTooLarge(
            f"{len(ps)} points exceeds enumeration cap {cap}"
        )


class TriangulationTable:
    """Every triangulation of one point set, as rows of integer ids.

    A triangle's id is the rank of its index triple among all triples in
    lexicographic order, and an edge's id the rank of its pair among all
    pairs, so a row of ascending ids sorts exactly like the canonical
    triangle tuple.  Rows are in canonical order.  Per row:

    * ``rows``: triangle ids, ascending;
    * ``edges``: edge ids, ascending;
    * ``quads``: one code per interior edge uv, ``id(uv) * edge count +
      id(pq)`` with p, q the opposing vertices, ascending (so ordered by
      edge, as in :func:`interior_quadrilaterals`);
    * ``length``: total edge length, equal to :func:`total_edge_length`
      bit for bit;
    * ``max_degree``: the largest vertex degree.

    :func:`triangulation_table` finds the rows by one breadth-first walk of
    the flip graph and fills every column as it expands them.  A row's key
    is the bitmask of its non-hull edges.  It is exact: a triangulation is
    determined by its edge set, and every triangulation has all hull edges.
    A level of rows is expanded in blocks; one bincount over (row, edge)
    gives each edge's count and its other triangle, from which follow the
    columns and the row's legal flips.
    """

    __slots__ = (
        "point_set", "triangles", "edge_pairs", "edge_index",
        "rows", "edges", "quads", "length", "max_degree",
    )

    def __init__(self, point_set, triangles, edge_pairs, rows, edges, quads, length, max_degree):
        self.point_set = point_set
        self.triangles: list[Triple] = triangles
        self.edge_pairs: list[EdgeKey] = edge_pairs
        self.edge_index = {e: i for i, e in enumerate(edge_pairs)}
        self.rows = rows
        self.edges = edges
        self.quads = quads
        self.length = length
        self.max_degree = max_degree

    def __len__(self) -> int:
        return len(self.rows)

    def triangulation(self, row: int) -> Triangulation:
        tris = self.triangles
        return Triangulation(self.point_set, [tris[i] for i in self.rows[row].tolist()])

    def quadrilateral(self, code: int) -> tuple[int, int, int, int]:
        """(u, v, p, q) of a quadrilateral code, p from the lower triangle."""
        uv, pq = divmod(code, len(self.edge_pairs))
        return (*self.edge_pairs[uv], *self.edge_pairs[pq])

    def element_ids(self, kind: Decomposition):
        """The per-row id column of one decomposition, and the decoder from
        an id to the element in the form :func:`elements` gives."""
        if kind is Decomposition.QUADRILATERAL:
            return self.quads, self.quadrilateral
        if kind is Decomposition.EDGE:
            return self.edges, self.edge_pairs.__getitem__
        return self.rows, self.triangles.__getitem__


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
        for a, b in itertools.combinations(range(n), 2)
    }
    flips = []
    for (u, v), s in side.items():
        left = [w for w in range(n) if s[w] is Orientation.CCW]
        right = [w for w in range(n) if s[w] is Orientation.CW]
        for p, q in itertools.product(left, right):
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


def triangulation_table(
    ps: PointSet, cap: int = DEFAULT_ENUMERATION_CAP
) -> TriangulationTable:
    """Enumerate every triangulation of ps once, by a breadth-first walk of
    the flip graph from the sweep triangulation, one level of rows at a
    time.  The flip graph of a point set is connected (Lawson, "Transforming
    triangulations", 1972), so the walk reaches every triangulation.

    Rows are keyed by their non-hull edges (see :class:`TriangulationTable`);
    a flip XORs the leaving and the entering edge's bits into the parent's
    key, and only the rows with new keys are built.
    """
    check_enumeration_cap(ps, cap)
    validate_general_position(ps)
    n = len(ps)
    triangles = list(itertools.combinations(range(n), 3))
    pairs = list(itertools.combinations(range(n), 2))
    n_pairs = len(pairs)
    corners = np.array(triangles, dtype=np.intp)
    ends = np.array(pairs, dtype=np.int32)
    tri_lut = np.full((n, n, n), -1, dtype=_id_dtype(len(triangles)))
    for perm in itertools.permutations(range(3)):
        tri_lut[tuple(corners[:, perm].T)] = np.arange(len(triangles))
    edge_lut = np.full((n, n), -1, dtype=_id_dtype(n_pairs))
    edge_lut[ends[:, 0], ends[:, 1]] = edge_lut[ends[:, 1], ends[:, 0]] = np.arange(n_pairs)
    # per triangle: its edges in apex_map insertion order, the vertex opposite each
    tri_edges = edge_lut[corners[:, [0, 0, 1]], corners[:, [1, 2, 2]]]
    tri_opp = corners[:, [2, 1, 0]].astype(edge_lut.dtype)
    edge_len = np.array([math.dist(ps[i], ps[j]) for i, j in pairs])
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
        # triangle: these with the hull edges are apex_map's insertion order.
        lower = step > 0
        inserted = seq[lower | (tally & 3 == 1)].reshape(b, n_edges)
        # left to right, as total_edge_length adds
        length = np.take(edge_len, inserted).cumsum(axis=1)[:, -1]
        edges = np.sort(inserted, axis=1)
        first = np.flatnonzero(lower)  # flat (row, slot) indices
        second = first + np.take(step, first)
        pq = np.take(edge_lut, np.take(opp, first) * n + np.take(opp, second))
        quads = (np.take(seq, first).astype(quad_dtype) * n_pairs + pq).reshape(b, n_interior)
        quads.sort(axis=1)
        # slot s of a row is in its triangle s // 3, so flat index // 3 is flat in block
        tri = block.ravel().astype(np.intp)
        flips = np.take(flip_at, np.take(tri, first // 3) * n_tri + np.take(tri, second // 3))
        legal = flips >= 0
        return (edges, quads, length, degree), first[legal] // width, flips[legal]

    rows = np.array([[tri_lut[tri] for tri in scan_triangulation(ps).triangles]])
    seed_bits = bit[np.unique(tri_edges[rows])]
    keys = np.bitwise_or.reduce(_one_bit(seed_bits[seed_bits >= 0], words), 0, keepdims=True)
    before = keys[:0]
    found = ([], [], [], [], [])  # per column: its part for every level, rows first
    while len(rows):
        parent, flips, blocks = [], [], ([], [], [], [])
        for lo in range(0, len(rows), _BLOCK_ROWS):
            columns, r, f = expand(rows[lo : lo + _BLOCK_ROWS])
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
    return TriangulationTable(ps, triangles, pairs, *columns)


def enumerate_triangulations(
    ps: PointSet, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Triangulation]:
    """Every triangulation of ps exactly once, in lexicographic order of the
    canonical triangle set."""
    table = triangulation_table(ps, cap)
    for row in range(len(table)):
        yield table.triangulation(row)
