"""Triangulations over a point set: representation, validation, enumeration.

A triangulation is stored canonically: each triangle as an ascending index
triple, the triple set sorted lexicographically.  That single ordering
defines determinism for enumeration, tie-breaking and file output.

Enumeration builds one integer table per point set (:class:`TriangulationTable`):
every triangulation as a row of triangle ids, with the per-row columns that
constraints filter on and that scores are gathered by.  A canonical
construction builds each row exactly once, a triangle per level, in numpy,
from one exact orientation sign per index triple; the columns are derived
from the sorted rows.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
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

# Rows per block when deriving the columns; bounds the temporaries.
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

    :func:`triangulation_table` builds the rows by canonical construction,
    a triangle at a time, so that each triangulation is reached once, and
    then derives the columns from the sorted rows in blocks.
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


def _orientation_signs(ps: PointSet, corners: np.ndarray) -> np.ndarray:
    """The n x n x n int8 array of orientation signs: entry (a, b, c) is 1
    when abc turns counterclockwise, -1 when it turns clockwise and 0 when
    two of a, b, c are equal.  One :func:`orientation` per ascending triple,
    the rows of corners; the other five orders follow by antisymmetry."""
    pts = ps.points
    n = len(pts)
    turns = [orientation(pts[i], pts[j], pts[k]).value for i, j, k in corners.tolist()]
    s = np.array(turns, dtype=np.int8)
    sign = np.zeros((n, n, n), dtype=np.int8)
    for shift in range(3):  # a rotation keeps the sign, a swap flips it
        a, b, c = np.roll(corners, shift, axis=1).T
        sign[a, b, c] = s
        sign[b, a, c] = -s
    return sign


def _bit_words(flags: np.ndarray, words: int) -> np.ndarray:
    """Rows of flags as rows of `words` uint64 words, flag b in bit b % 64
    of word b // 64."""
    padded = np.zeros((len(flags), 64 * words), dtype=bool)
    padded[:, : flags.shape[1]] = flags
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def triangulation_table(
    ps: PointSet, cap: int = DEFAULT_ENUMERATION_CAP
) -> TriangulationTable:
    """Enumerate every triangulation of ps once, by canonical construction.

    Every geometric decision reads the exact orientation signs of
    :func:`_orientation_signs`.  A triangle is empty when no point lies on
    its inner side of all three edges; an edge is a hull edge when every
    point lies on one side of it; two edges with four distinct ends cross
    properly when each separates the other's ends.

    A partial triangulation is a set of empty triangles, kept as two bit
    masks over the interior (non-hull) edges: the edges with a triangle on
    their left and those with one on their right.  An edge is open when it
    has a triangle on one side only.  The seeds are the empty triangles on
    the inner side of the lowest hull edge.  Each level extends every
    partial at its lowest open edge, on the open side, by each empty
    triangle whose edges cross no edge of the partial.  After 2n - h - 2
    levels, h the hull size, the partials are the triangulations.  Rows are
    rebuilt from each level's (parent, triangle) trail, and the columns
    derived from the sorted rows.

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
    """
    check_enumeration_cap(ps, cap)
    validate_general_position(ps)
    n = len(ps)
    triangles = list(itertools.combinations(range(n), 3))
    pairs = list(itertools.combinations(range(n), 2))
    n_tri, n_pairs = len(triangles), len(pairs)
    corners = np.array(triangles, dtype=np.intp)
    ends = np.array(pairs, dtype=np.intp)
    sign = _orientation_signs(ps, corners)
    edge_lut = np.full((n, n), -1, dtype=_id_dtype(n_pairs))
    edge_lut[ends[:, 0], ends[:, 1]] = edge_lut[ends[:, 1], ends[:, 0]] = np.arange(n_pairs)
    # per triangle: its edges in apex_map insertion order, the vertex
    # opposite each and the side of each it lies on (1 left, -1 right)
    tails, heads, tri_opp = corners[:, [0, 0, 1]], corners[:, [1, 2, 2]], corners[:, [2, 1, 0]]
    tri_edges = edge_lut[tails, heads]
    tri_side = sign[tails, heads, tri_opp]
    i, j, k = corners.T
    turn = sign[i, j, k][:, None]
    empty = ~((sign[i, j] == turn) & (sign[j, k] == turn) & (sign[k, i] == turn)).any(axis=1)
    side = sign[ends[:, 0], ends[:, 1]]  # pair x point
    interior = (side > 0).any(axis=1) & (side < 0).any(axis=1)
    splits = side[:, ends[:, 0]] * side[:, ends[:, 1]] < 0  # pair x pair
    n_bits = int(interior.sum())
    h = n_pairs - n_bits
    words = n_bits // 64 + 1
    bit = np.full(n_pairs, -1, dtype=np.intp)
    bit[interior] = np.arange(n_bits)

    # per triangle, masks of the interior edges its edges cross and of its
    # own interior edges with it on their left and on their right
    cross = _bit_words((splits & splits.T)[tri_edges].any(axis=1)[:, interior], words)
    on = np.zeros((n_tri, n_pairs), dtype=np.int8)
    on[np.arange(n_tri)[:, None], tri_edges] = tri_side
    add_left = _bit_words(on[:, interior] > 0, words)
    add_right = _bit_words(on[:, interior] < 0, words)
    # the empty triangles on each (interior edge, side) as CSR arrays,
    # keyed 2 * bit + 1 for the right side
    tri_of, slot = np.nonzero(empty[:, None] & interior[tri_edges])
    keys = 2 * bit[tri_edges[tri_of, slot]] + (tri_side[tri_of, slot] < 0)
    candidates = tri_of[np.argsort(keys, kind="stable")]
    start = np.zeros(2 * n_bits + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=2 * n_bits), out=start[1:])

    lowest_hull = np.flatnonzero(~interior)[0]
    tri = np.flatnonzero(empty & (tri_edges == lowest_hull).any(axis=1))
    left, right = add_left[tri], add_right[tri]
    trail = [(np.zeros(len(tri), dtype=np.intp), tri)]  # per level: parent, triangle
    width = 2 * n - h - 2
    for _ in range(width - 1):
        at = np.arange(len(left))
        open_ = left ^ right
        word = (open_ != 0).argmax(axis=1)
        x = open_[at, word]
        lowest = x & (~x + 1)  # the lowest open edge's bit
        key = 2 * (64 * word + np.frexp(lowest.astype(np.float64))[1] - 1)
        # + 1 when its one triangle is on its left: the open side is the right
        key += (left[at, word] & lowest) != 0
        count = start[key + 1] - start[key]
        parent = np.repeat(at, count)
        offset = np.repeat(start[key] - np.cumsum(count) + count, count)
        tri = candidates[offset + np.arange(len(parent))]
        fits = ~((left | right)[parent] & cross[tri]).any(axis=1)
        parent, tri = parent[fits], tri[fits]
        left, right = left[parent] | add_left[tri], right[parent] | add_right[tri]
        trail.append((parent, tri))
    del left, right
    rows = np.empty((len(trail[-1][1]), width), dtype=_id_dtype(n_tri))
    at = np.arange(len(rows))
    for level in range(width - 1, -1, -1):
        parent, tri = trail[level]
        rows[:, level] = tri[at]
        at = parent[at]
    del trail
    rows.sort(axis=1)
    rows = rows[np.lexsort(rows.T[::-1])]
    columns = _row_columns(ps, ends, edge_lut, tri_edges, tri_opp, h, rows)
    return TriangulationTable(ps, triangles, pairs, rows, *columns)


def _row_columns(ps, ends, edge_lut, tri_edges, tri_opp, h, rows):
    """The edges, quads, length and max_degree columns of the ascending rows
    of a table with h hull edges, a block of rows at a time: one bincount
    over (row, edge) gives each edge's count and its other triangle, from
    which the columns follow."""
    n, n_pairs = len(ps), len(ends)
    n_edges, n_interior = 3 * n - h - 3, 3 * n - 2 * h - 3
    edge_len = np.array([math.dist(ps[i], ps[j]) for i, j in ends.tolist()])
    incidence = np.zeros((n_pairs, n))  # edge x vertex, 1 at the edge's ends
    incidence[np.arange(n_pairs), ends[:, 0]] = incidence[np.arange(n_pairs), ends[:, 1]] = 1
    count = len(rows)
    edges = np.empty((count, n_edges), dtype=edge_lut.dtype)
    quads = np.empty((count, n_interior), dtype=_id_dtype(n_pairs**2))
    length = np.empty(count)
    degree = np.empty(count, dtype=np.int16)
    slot = np.arange(3 * rows.shape[1], dtype=np.int32)
    for lo in range(0, count, _BLOCK_ROWS):
        block = rows[lo : lo + _BLOCK_ROWS]
        b = len(block)
        seq = np.take(tri_edges, block, axis=0).reshape(b, -1)  # every edge once per triangle
        opp = np.take(tri_opp, block, axis=0).ravel()
        at = (seq + np.arange(0, b * n_pairs, n_pairs, dtype=np.int32)[:, None]).ravel()
        # per (row, edge): 4 * (sum of its one or two slots) + its count
        tally = np.bincount(at, weights=np.tile(4 * slot + 1, b), minlength=b * n_pairs)
        degree[lo : lo + b] = ((tally > 0).reshape(b, n_pairs) @ incidence).max(axis=1)
        tally = np.take(tally, at).astype(np.int32).reshape(b, -1)
        step = (tally >> 2) - 2 * slot  # from an interior edge's slot to its other one
        # Rows ascend, so the first slot of an interior edge is in its lower
        # triangle: these with the hull edges are apex_map's insertion order.
        lower = step > 0
        inserted = seq[lower | (tally & 3 == 1)].reshape(b, n_edges)
        # left to right, as total_edge_length adds
        length[lo : lo + b] = np.take(edge_len, inserted).cumsum(axis=1)[:, -1]
        edges[lo : lo + b] = np.sort(inserted, axis=1)
        first = np.flatnonzero(lower)  # flat (row, slot) indices
        second = first + np.take(step, first)
        pq = np.take(edge_lut, np.take(opp, first) * n + np.take(opp, second))
        uv = np.take(seq, first).astype(quads.dtype)
        quads[lo : lo + b] = np.sort((uv * n_pairs + pq).reshape(b, n_interior), axis=1)
    return edges, quads, length, degree


def enumerate_triangulations(
    ps: PointSet, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Triangulation]:
    """Every triangulation of ps exactly once, in lexicographic order of the
    canonical triangle set."""
    table = triangulation_table(ps, cap)
    for row in range(len(table)):
        yield table.triangulation(row)
