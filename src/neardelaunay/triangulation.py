"""Triangulations over a point set: representation, validation, enumeration.

A triangulation is stored canonically: each triangle as an ascending index
triple, the triple set sorted lexicographically.  That single ordering
defines determinism for enumeration, tie-breaking and file output.

Enumeration builds one integer table per point set (:class:`TriangulationTable`):
every triangulation as a row of triangle ids.  A canonical construction
builds each row exactly once, a triangle per level, in numpy, from one exact
orientation sign per index triple.  The per-row edge, quadrilateral and
degree columns are derived from the sorted rows the first time each is read;
constraints are decided from the rows themselves.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .errors import (
    EnumerationTooLarge,
    InvalidConstraintEdges,
    MismatchedPointSets,
    NearDelaunayError,
)
from .geom import (
    Orientation,
    Point,
    PointSet,
    orientation,
    orientations,
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
    """Immutable triangle set over a PointSet; its apex map, and the
    quadrilateral elements read from it, are built on first use."""

    __slots__ = ("point_set", "triangles", "_apexes", "_quads", "_neighbours", "_length")

    def __init__(self, point_set: PointSet, triangles):
        self.point_set = point_set
        self.triangles: tuple[Triple, ...] = _canon_triples(triangles)
        self._apexes: ApexMap | None = None
        self._quads: tuple[tuple[int, int, int, int], ...] | None = None  # see elements
        self._neighbours: tuple[tuple[int, ...], ...] | None = None
        self._length: float | None = None

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
    """Edges every triangulation must contain, as sorted index pairs.  An
    entry that is not a pair of indices (:func:`index_pair`) raises
    InvalidConstraintEdges; the indices are checked against a point set
    where one is at hand."""

    edges: frozenset[EdgeKey]

    def __init__(self, edges):
        norm = frozenset((min(i, j), max(i, j)) for i, j in map(index_pair, edges))
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


def index_pair(edge) -> tuple[int, int]:
    """The two ends of an edge entry, each an index (:func:`strict_index`);
    InvalidConstraintEdges for any other entry, such as a triple, a bare
    number or a pair with a float end."""
    try:
        i, j = edge
    except (TypeError, ValueError):
        raise InvalidConstraintEdges(f"bad edge {edge!r}") from None
    try:
        return strict_index(i), strict_index(j)
    except TypeError:
        raise InvalidConstraintEdges(f"bad edge ({i!r}, {j!r})") from None


def _index_pairs(edges) -> list[EdgeKey]:
    return [index_pair(e) for e in edges]


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
    checked to lie on opposite sides; (u, v) per edge; or the triangles.
    The quadrilaterals are built once per triangulation, so every metric
    of it shares one tuple per edge; a failed check caches nothing."""
    if kind is Decomposition.QUADRILATERAL:
        if t._quads is None:
            t._quads = tuple((q.u, q.v, q.p, q.q) for q in interior_quadrilaterals(t))
        return t._quads
    if kind is Decomposition.EDGE:
        return t.edges()
    return t.triangles


def total_edge_length(t: Triangulation) -> float:
    if t._length is None:
        # Left to right in apex_map order, plain float additions, as the length
        # screen's error bound assumes (sum() compensates from Python 3.12).
        pts = t.point_set.points
        total = 0.0
        for i, j in t.apexes():
            total += math.dist(pts[i], pts[j])
        t._length = total
    return t._length


def max_degree(t: Triangulation) -> int:
    return max(map(len, t.neighbours()))


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


# The length screen of TriangulationTable and _length_rows.  Write u = eps / 2,
# let d_e be the float edge lengths (math.dist) and L the exact sum of a
# row's E of them.
# total_edge_length adds them left to right: E - 1 rounded additions of
# non-negative terms, so |length - L| <= g(E - 1) L with g(k) = k u / (1 -
# k u) (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
# section 4.2).  The screen adds the same d_e otherwise: each of the row's W
# triangle perimeters is two additions, the perimeters are summed by numpy in
# W - 1 more, and the hull length H, summed in h - 1 (h <= W + 2), is added
# once.  Every d_e enters 2L = sum of perimeters + H at most twice, each
# copy through at most W + 2 roundings, so |screen - L| <= g(W + 2) L; the
# final halving is exact unless the sum is subnormal.  Hence |screen -
# length| <= (g(W + 2) + g(E - 1)) L, about (W + E + 1) u screen, and err =
# (W + E + 1) eps screen + TINY covers it twice over with the rounding
# of screen - err and screen + err (TINY, the smallest normal double, for
# subnormal sums).  The error is relative to L: every d_e and every partial
# sum is non-negative, so no cancellation enters, however far the points
# lie from the origin.  A row whose interval [screen - err, screen + err]
# lies strictly on one side of factor * dt_length has its length on that
# side; only the others go back to total_edge_length.
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


def _length_rows(table: "TriangulationTable", bound: float, at_least: bool) -> np.ndarray:
    """Mask of the rows whose total_edge_length is >= bound (at_least) or
    <= bound, decided by the table's length screen and, inside its error
    band, by total_edge_length itself."""
    low, high = table._length_screen
    above, below = low > bound, high < bound
    mask = above if at_least else below
    for row in np.flatnonzero(above == below).tolist():  # neither: in the band
        length = total_edge_length(table.triangulation(row))
        mask[row] = length >= bound if at_least else length <= bound
    return mask


def feasible_rows(table: "TriangulationTable", c: Constraint, dt_length: float) -> np.ndarray:
    """Boolean mask of the table rows that satisfy c, each decided as
    :func:`satisfies` decides it.  Only a degree bound reads a derived
    column (``max_degree``).  A required edge is a lookup of the triangles
    that have it; a length bound is screened by half the sum of the
    triangle perimeters and the hull length (see the comment above)."""
    if isinstance(c, RequiredEdges):
        mask = np.ones(len(table), dtype=bool)
        for e in c.edges:
            eid = table.edge_index.get(e)
            if eid is None:
                return np.zeros(len(table), dtype=bool)
            has_edge = (table._sides[0] == eid).any(axis=1)  # per triangle
            mask &= np.take(has_edge, table.rows).any(axis=1)
        return mask
    if isinstance(c, MinTotalLength):
        return _length_rows(table, c.factor * dt_length, True)
    if isinstance(c, MaxTotalLength):
        return _length_rows(table, c.factor * dt_length, False)
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
    strictly convex (the flip would fold over).  In construction only
    ``delaunay._insert_edge`` meets that None, and retries the edge later;
    the edges ``delaunay._legalize`` flips have convex quadrilaterals."""
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

# Rows per block when deriving a column; bounds the temporaries.  Of 256 to
# 4,096 rows, 1,024 and 2,048 derived quads and edges fastest on 12 points.
_BLOCK_ROWS = 1024


def _id_dtype(count: int):
    """Smallest signed integer type holding the ids 0 .. count - 1."""
    return np.int16 if count <= np.iinfo(np.int16).max + 1 else np.int32


def check_enumeration_cap(count: int, cap: int) -> None:
    """Refuse to enumerate a point set of more than cap points."""
    if count > cap:
        raise EnumerationTooLarge(f"{count} points exceeds enumeration cap {cap}")


def _triangle_sides(n: int, triangles, pairs):
    """Per triangle (i, j, k) over n points, the ids of its edges in
    apex_map insertion order, (i, j), (i, k), (j, k), and the vertex
    opposite each."""
    corners = np.array(triangles, dtype=np.intp)
    ends = np.array(pairs, dtype=np.intp)
    edge_lut = np.full((n, n), -1, dtype=_id_dtype(len(pairs)))
    edge_lut[ends[:, 0], ends[:, 1]] = edge_lut[ends[:, 1], ends[:, 0]] = np.arange(len(pairs))
    return edge_lut[corners[:, [0, 0, 1]], corners[:, [1, 2, 2]]], corners[:, [2, 1, 0]]


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
    * ``max_degree``: the largest vertex degree.

    :func:`triangulation_table` builds the rows only.  Each other column is
    derived from them the first time it is read, a block of rows at a time.
    ``edges`` and ``quads`` sort one key per triangle side, ``(edge id <<
    n.bit_length()) | opposite vertex``, within each row: a run of equal
    edge ids is one edge, and a run of two is an interior edge uv with its
    apexes p < q.  ``max_degree`` counts each row's triangles per vertex.
    :func:`feasible_rows` reads ``max_degree`` for a degree bound only, and a
    query reads the id column of its metric's decomposition.
    """

    def __init__(self, point_set, triangles, edge_pairs, rows):
        self.point_set = point_set
        self.triangles: list[Triple] = triangles
        self.edge_pairs: list[EdgeKey] = edge_pairs
        self.edge_index = {e: i for i, e in enumerate(edge_pairs)}
        self.rows = rows

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

    @cached_property
    def _sides(self):
        return _triangle_sides(len(self.point_set), self.triangles, self.edge_pairs)

    @cached_property
    def _length_screen(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the low and high ends of the screen interval around
        total_edge_length: half the sum of its triangles' perimeters and the
        hull length, minus and plus its error bound (see the comment above
        _length_rows)."""
        pts = self.point_set.points
        side = np.array([math.dist(pts[i], pts[j]) for i, j in self.edge_pairs])
        perimeter = side[self._sides[0]].sum(axis=1)
        hull = self.point_set.hull()
        hull_length = 0.0
        for i, j in zip(hull, hull[1:] + hull[:1]):
            hull_length += side[self.edge_index[min(i, j), max(i, j)]]
        screen = (np.take(perimeter, self.rows).sum(axis=1) + hull_length) / 2.0
        terms = 2 * self.rows.shape[1] + len(pts)  # W + E + 1, as E = W + n - 1
        err = terms * _EPS * screen + _TINY
        return screen - err, screen + err

    def _sorted_sides(self):
        """Per block of rows: its first row, its row count and its rows'
        sides as keys ``(edge id << n.bit_length()) | opposite vertex``,
        each row's ascending, flattened into one array.  An interior edge's
        two sides are adjacent there, the lower apex first.  No run of
        equal edge ids crosses from one row to the next: the first row
        would hold no edge above that id and the second none below it, but
        each holds every hull edge."""
        tri_edges, tri_opp = self._sides
        keys = (tri_edges.astype(np.int32) << len(self.point_set).bit_length()) | tri_opp
        keys = keys.astype(_id_dtype(int(keys.max()) + 1))
        for lo in range(0, len(self.rows), _BLOCK_ROWS):
            block = np.take(keys, self.rows[lo : lo + _BLOCK_ROWS], axis=0)
            block = block.reshape(len(block), -1)
            block.sort(axis=1)
            yield lo, len(block), block.ravel()

    @cached_property
    def edges(self) -> np.ndarray:
        # the last side of each run of equal edge ids
        shift = len(self.point_set).bit_length()
        width = len(self.point_set) + self.rows.shape[1] - 1
        out = np.empty((len(self.rows), width), dtype=self._sides[0].dtype)
        for lo, b, keys in self._sorted_sides():
            edge = keys >> shift
            ends = np.append(np.flatnonzero(edge[1:] != edge[:-1]), len(edge) - 1)
            out[lo : lo + b] = np.take(edge, ends).reshape(b, width)
        return out

    @cached_property
    def max_degree(self) -> np.ndarray:
        # A vertex has as many edges as triangles, and one more on the hull:
        # its triangles close a cycle around an inner vertex, and make a fan
        # between its two hull edges around a hull vertex.
        n = len(self.point_set)
        corners = np.array(self.triangles, dtype=np.int32)
        on_hull = np.zeros(n, dtype=np.int64)
        on_hull[list(self.point_set.hull())] = 1
        out = np.empty(len(self.rows), dtype=np.int16)
        for lo in range(0, len(self.rows), _BLOCK_ROWS):
            block = self.rows[lo : lo + _BLOCK_ROWS]
            b = len(block)
            at = np.take(corners, block, axis=0).reshape(b, -1)
            at = at + np.arange(0, b * n, n, dtype=np.int32)[:, None]
            count = np.bincount(at.ravel(), minlength=b * n).reshape(b, n)
            out[lo : lo + b] = (count + on_hull).max(axis=1)
        return out

    @cached_property
    def quads(self) -> np.ndarray:
        # an interior edge's two adjacent sides give id(uv) and its apexes
        # p < q, and id(pq) is the rank of (p, q) among the pairs
        n, n_pairs = len(self.point_set), len(self.edge_pairs)
        shift = n.bit_length()
        width = 2 * self.rows.shape[1] - n + 1
        out = np.empty((len(self.rows), width), dtype=_id_dtype(n_pairs**2))
        for lo, b, keys in self._sorted_sides():
            edge = keys >> shift
            at = np.flatnonzero(edge[1:] == edge[:-1])  # ascending, so by edge in each row
            p, q = np.take(keys, at) & ((1 << shift) - 1), np.take(keys, at + 1) & ((1 << shift) - 1)
            pq = (p * (2 * n - 1 - p) >> 1) + q - p - 1
            out[lo : lo + b] = (np.take(edge, at).astype(out.dtype) * n_pairs + pq).reshape(b, width)
        return out


def _orientation_signs(ps: PointSet, corners: np.ndarray) -> np.ndarray:
    """The n x n x n int8 array of orientation signs: entry (a, b, c) is 1
    when abc turns counterclockwise, -1 when it turns clockwise and 0 when
    two of a, b, c are equal.  One batched :func:`~neardelaunay.geom.orientations`
    over the ascending triples, the rows of corners, which calls the scalar
    only where its filter is undecided; the other five orders follow by
    antisymmetry."""
    n = len(ps)
    s = orientations(np.array(ps.points, dtype=float), *corners.T)
    sign = np.zeros((n, n, n), dtype=np.int8)
    for shift in range(3):  # a rotation keeps the sign, a swap flips it
        a, b, c = np.roll(corners, shift, axis=1).T
        sign[a, b, c] = s
        sign[b, a, c] = -s
    return sign


def _bit_words(flags: np.ndarray) -> list[np.ndarray]:
    """Rows of flags as a list of 1-D uint64 arrays, one per word: flag b
    in bit b % 64 of word b // 64."""
    words = flags.shape[1] // 64 + 1
    padded = np.zeros((len(flags), 64 * words), dtype=bool)
    padded[:, : flags.shape[1]] = flags
    packed = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    return [np.ascontiguousarray(packed[:, w]) for w in range(words)]


def _lowest_bit(mask: list[np.ndarray], other: list[np.ndarray]):
    """Per partial, of a mask kept as one uint64 array per word: the index
    of its lowest set bit, that bit within its word (0, and the index
    meaningless, where none is set), and whether the mask `other` has it."""
    x, y, word = mask[0], other[0], 0
    for w in range(1, len(mask)):
        unset = x == 0
        x, y, word = np.where(unset, mask[w], x), np.where(unset, other[w], y), np.where(unset, w, word)
    low = x & (~x + 1)
    return 64 * word + np.frexp(low.astype(np.float64))[1] - 1, low, (y & low) != 0


def triangulation_table(
    ps: PointSet, cap: int = DEFAULT_ENUMERATION_CAP
) -> TriangulationTable:
    """Enumerate every triangulation of ps once, by canonical construction.

    Every geometric decision reads the exact orientation signs of
    :func:`_orientation_signs`, one batched exact sign per index triple.  A
    triangle is empty when no point lies on its inner side of all three
    edges; an edge is a hull edge when every point lies on one side of it;
    two edges with four distinct ends cross properly when each separates
    the other's ends.

    A partial triangulation is a set of empty triangles, kept as two bit
    masks over the interior (non-hull) edges: the edges with a triangle on
    their left and those with one on their right.  Each mask is a list of
    uint64 arrays, one per word and one entry per partial, so up to 64
    interior edges (n <= 12) take one word.  An edge is open when it has a
    triangle on one side only.  The seeds are the empty triangles on the
    inner side of the lowest hull edge.  Each level extends every partial
    at its lowest open edge, on the open side, by each empty triangle whose
    edges cross no edge of the partial.  After 2n - h - 2 levels, h the
    hull size, the partials are the triangulations; the last level looks
    its one triangle up (4).  Rows are rebuilt from each level's (parent,
    triangle) trail and sorted; the table derives its other columns from
    them when they are read.

    This is exact, by the view of triangulations as maximal sets of
    non-crossing edges (De Loera, Rambau and Santos, *Triangulations*,
    2010), for points in general position:

    1. Two empty triangles s != t overlap iff an edge of one properly
       crosses an edge of the other.  If is plain.  Only if: some edge e of
       s meets the interior of t, or else t would lie inside s, whose
       emptiness makes t's vertices its own.  e is no edge of t, so one of
       its ends is no vertex of t; follow e from inside t to that end.  It
       leaves t at a point of an edge f of t that is neither a vertex of t
       nor an end of e, as no point lies inside a segment joining two
       others.  So e and f cross properly.  Hence a candidate, whose edges
       cross none present, overlaps no triangle of the partial.
    2. Each triangulation T is reached exactly once.  T has exactly one
       triangle on the inner side of the lowest hull edge, and one on each
       side of every interior edge.  The lowest open edge and its open side
       depend on the partial only, and T's one triangle there crosses no
       edge of T, so the partials inside T form one chain from a seed.
       Partials that part at a level differ in the one triangle they put on
       the same side of the same edge, so no two chains meet again.
    3. No partial is a dead end.  Its edges cross nowhere, so they extend
       to a maximal set of non-crossing edges: a triangulation T.  T holds
       each triangle abc of the partial: T's triangle abx on c's side of ab
       overlaps abc unless x = c, and by 1 an overlap would make two edges
       of T cross.  So T triangulates the domain the partial leaves
       uncovered, whose corners and inner points are points of the set,
       and T's triangle on the open side of the lowest open edge is a
       candidate.  A partial of 2n - h - 2 triangles, the size of every
       triangulation, is then all of T.
    4. The last level is forced.  A partial one triangle short of T leaves
       uncovered exactly T's last triangle t, and its open edges are
       exactly t's interior edges: every other interior edge has its two
       triangles of T in the partial.  Two edges that share an end name one
       triangle, so t is named by its two lowest open edges when it has
       two or three interior edges.  Otherwise its two other edges are hull
       edges, so its third vertex is the one hull neighbour that both ends
       of the open edge share on the open side (two hull vertices share at
       most one hull neighbour on each side of the segment joining them).
       Either way t is one entry of a lookup built from the triangles,
       with no candidate to test.
    """
    check_enumeration_cap(len(ps), cap)
    validate_general_position(ps)
    n = len(ps)
    triangles = list(itertools.combinations(range(n), 3))
    pairs = list(itertools.combinations(range(n), 2))
    n_pairs = len(pairs)
    corners = np.array(triangles, dtype=np.intp)
    ends = np.array(pairs, dtype=np.intp)
    sign = _orientation_signs(ps, corners)
    # per triangle: its edges, the vertex opposite each and the side of
    # each it lies on (1 left, -1 right)
    tri_edges, tri_opp = _triangle_sides(n, triangles, pairs)
    tri_side = sign[corners[:, [0, 0, 1]], corners[:, [1, 2, 2]], tri_opp]
    i, j, k = corners.T
    turn = sign[i, j, k][:, None]
    empty = ~((sign[i, j] == turn) & (sign[j, k] == turn) & (sign[k, i] == turn)).any(axis=1)
    side = sign[ends[:, 0], ends[:, 1]]  # pair x point
    interior = (side > 0).any(axis=1) & (side < 0).any(axis=1)
    splits = side[:, ends[:, 0]] * side[:, ends[:, 1]] < 0  # pair x pair
    n_bits = int(interior.sum())
    h = n_pairs - n_bits
    bit = np.full(n_pairs, -1, dtype=np.intp)
    bit[interior] = np.arange(n_bits)
    tri_bits = bit[tri_edges]

    # per triangle, masks of the interior edges its edges cross and of its
    # own interior edges with it on their left and on their right
    cross = _bit_words((splits & splits.T)[tri_edges].any(axis=1)[:, interior])
    on = np.zeros((len(triangles), n_pairs), dtype=np.int8)
    on[np.arange(len(triangles))[:, None], tri_edges] = tri_side
    add_left = _bit_words(on[:, interior] > 0)
    add_right = _bit_words(on[:, interior] < 0)
    # the empty triangles on each (interior edge, side) as CSR arrays,
    # keyed 2 * bit + 1 for the right side
    tri_of, slot = np.nonzero(empty[:, None] & (tri_bits >= 0))
    keys = 2 * tri_bits[tri_of, slot] + (tri_side[tri_of, slot] < 0)
    candidates = tri_of[np.argsort(keys, kind="stable")]
    start = np.zeros(2 * n_bits + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=2 * n_bits), out=start[1:])
    # the last level's lookup (argument 4): entry (a, b) is the triangle
    # whose two lowest interior edges are a < b, and entry (a, n_bits + s)
    # the one whose only interior edge is a, on its right side when s = 1
    inner = np.sort(tri_bits, axis=1)  # a hull edge's -1 first
    low2 = np.where(inner[:, :1] < 0, inner[:, 1:], inner[:, :2])  # -1 first if one
    only = low2[:, 0] < 0
    on_its_right = ((tri_bits >= 0) & (tri_side < 0)).any(axis=1)
    row = np.where(only, low2[:, 1], low2[:, 0])
    col = np.where(only, n_bits + on_its_right, low2[:, 1])
    named = np.flatnonzero(low2[:, 1] >= 0)
    last = np.full((n_bits, n_bits + 2), -1, dtype=np.intp)
    last[row[named], col[named]] = named

    lowest_hull = np.flatnonzero(~interior)[0]
    tri = np.flatnonzero(empty & (tri_edges == lowest_hull).any(axis=1))
    left = [w[tri] for w in add_left]
    right = [w[tri] for w in add_right]
    trail = [(np.zeros(len(tri), dtype=np.intp), tri)]  # per level: parent, triangle
    width, rows_dtype = 2 * n - h - 2, _id_dtype(len(triangles))
    for _ in range(width - 2):
        at = np.arange(len(left[0]))
        # key 2 * bit of the lowest open edge, + 1 when its one triangle is
        # on its left: the open side is the right
        lowest, _, has_left = _lowest_bit([x ^ y for x, y in zip(left, right)], left)
        key = 2 * lowest + has_left
        count = start[key + 1] - start[key]
        parent = np.repeat(at, count)
        offset = np.repeat(start[key] - np.cumsum(count) + count, count)
        tri = np.take(candidates, offset + np.arange(len(parent)))
        hit = np.take(left[0] | right[0], parent) & np.take(cross[0], tri)
        for w in range(1, len(left)):
            hit |= np.take(left[w] | right[w], parent) & np.take(cross[w], tri)
        fits = np.flatnonzero(hit == 0)
        parent, tri = np.take(parent, fits), np.take(tri, fits)
        left = [np.take(x, parent) | np.take(y, tri) for x, y in zip(left, add_left)]
        right = [np.take(x, parent) | np.take(y, tri) for x, y in zip(right, add_right)]
        trail.append((parent.astype(np.int32), tri.astype(rows_dtype)))  # most of the peak memory
    rows = np.empty((len(trail[-1][1]), width), dtype=rows_dtype)
    if width > 1:  # the forced last level: one triangle per partial
        open_ = [x ^ y for x, y in zip(left, right)]
        first, low, has_left = _lowest_bit(open_, left)
        open_ = [x ^ np.where(first >> 6 == w, low, 0) for w, x in enumerate(open_)]
        second, low, _ = _lowest_bit(open_, left)
        rows[:, -1] = last[first, np.where(low != 0, second, n_bits + has_left)]
    del left, right
    at = np.arange(len(rows))
    for level in range(len(trail) - 1, -1, -1):
        parent, tri = trail[level]
        rows[:, level] = np.take(tri, at)
        at = np.take(parent, at)
    del trail
    rows.sort(axis=1)
    return TriangulationTable(ps, triangles, pairs, rows[np.lexsort(rows.T[::-1])])


def enumerate_triangulations(
    ps: PointSet, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Triangulation]:
    """Every triangulation of ps exactly once, in lexicographic order of the
    canonical triangle set."""
    table = triangulation_table(ps, cap)
    for row in range(len(table)):
        yield table.triangulation(row)
