"""Aggregate element scores and search for the best constrained triangulation.

Two aggregations: the plain sum, and worst-first lexicographic comparison
("bottleneck").  Optimization is exhaustive: every triangulation within the
enumeration cap is checked against the constraint and scored, as rows of the
point set's triangulation table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .delaunay import cdt, delaunay, normalize_edges
from .errors import IncomparableScores, NearDelaunayError
from .geom import PointSet
from .metrics import Evaluator, ScoreOrientation, lookup_metric
from .triangulation import (
    DEFAULT_ENUMERATION_CAP,
    Constraint,
    RequiredEdges,
    Triangulation,
    TriangulationTable,
    check_enumeration_cap,
    feasible_rows,
    total_edge_length,
    triangulation_table,
)

# Lexicographic comparisons treat element values within this absolute
# tolerance as tied, so floating-point noise cannot reorder genuine ties.
LEX_TOLERANCE = 1e-12


class AggregationMode(Enum):
    SUM = "sum"
    BOTTLENECK_LEX = "bottleneck"

    @classmethod
    def _missing_(cls, value):
        """AggregationMode(name) rejects an unknown name as a package error."""
        raise NearDelaunayError(f"unknown mode {value!r}")


class Comparison(Enum):
    A_CLOSER = "a_closer"
    B_CLOSER = "b_closer"
    EQUAL = "equal"


@dataclass(frozen=True)
class ScoreVector:
    """Element values of one metric on one triangulation, in canonical element order."""

    metric: str
    orientation: ScoreOrientation
    values: tuple[float, ...]

    @classmethod
    def from_scores(cls, metric: str, scores) -> "ScoreVector":
        return cls(metric, lookup_metric(metric).orientation, tuple(s.value for s in scores))

    def worst_first(self) -> tuple[float, ...]:
        return tuple(
            sorted(self.values, reverse=self.orientation is ScoreOrientation.LOWER_BETTER)
        )


def aggregate_sum(sv: ScoreVector) -> float:
    # exactly-rounded, hence independent of element order
    return math.fsum(sv.values)


def aggregate(sv: ScoreVector, mode: AggregationMode) -> float:
    """One number per score vector: the exact sum, or the worst element (0
    for no elements)."""
    if mode is AggregationMode.SUM:
        return aggregate_sum(sv)
    worst = sv.worst_first()
    return worst[0] if worst else 0.0


def comparison(ps: PointSet, constraint: Constraint) -> tuple[str, Triangulation]:
    """The triangulation a constrained result is compared with: the CDT of
    the required edges, otherwise the Delaunay triangulation."""
    if isinstance(constraint, RequiredEdges):
        return "cdt", cdt(ps, sorted(constraint.edges))
    return "delaunay", delaunay(ps)


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


def _is_sum_better(value: float, best: float, lower_better: bool) -> bool:
    return value < best if lower_better else value > best


# The candidate filter of _best_sum.  Take a row of k finite values x_j with
# exact sum S and A = sum |x_j|, and write u = eps / 2.  numpy's float sum s
# is k - 1 rounded additions in some order, so |s - S| <= g A with
# g = (k - 1) u / (1 - (k - 1) u) (Higham, "Accuracy and Stability of
# Numerical Algorithms", 2nd ed., section 4.2; an addition whose result is
# subnormal is exact, so underflow adds no error).  The float sum a of the
# |x_j| is at least A (1 - g), so err = k eps a + TINY is at least
# 2 k u A (1 - g) (1 - u)^2, where TINY, the smallest normal double, covers
# the product's underflow.  For k u < 1e-3 that exceeds g A + u (|s| + err)
# (1 + u) by about k u A: the error of s, and the rounding of s - err and
# s + err, with |s| <= A (1 + g).  So the float interval [s - err, s + err]
# holds S.  A row whose low end lies above some row's high end (below its
# low end when higher is better) is worse than that row: it can neither win
# nor tie.  Every other row is a candidate, exact ties included.  A row
# that is not finite gives a NaN or infinite end and stays a candidate, so
# math.fsum decides (or raises) on it as before.
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


def _best_sum(scores: np.ndarray, lower_better: bool) -> int:
    """Row with the best exact sum (``math.fsum``); a later row wins only
    when strictly better, so ties keep the earliest.

    ``math.fsum`` runs only on the candidate rows: those whose numpy row sum,
    widened by its error bound, can reach the best row's (see the comment
    above).  A median query at n = 12 keeps about one candidate row.
    """
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
        if best_sum is None or _is_sum_better(value, best_sum, lower_better):
            best, best_sum = row, value
    return best


def _best_bottleneck(scores: np.ndarray, lower_better: bool) -> int:
    """The scan of compare_bottleneck_lex over the rows: a later row replaces
    the best only when closer, so ties keep the earliest.  Each step finds
    the next closer row among a block of rows at once.  A block is 8 rows
    after each closer row and doubles, up to 1,024 rows, while none is
    found, so the about hundred closer rows of a query at n = 12 do not
    each cost a full block."""
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


def best_triangulation(
    table: TriangulationTable,
    constraint: Constraint,
    metric: str,
    mode: AggregationMode,
    evaluator: Evaluator,
) -> Triangulation | None:
    """Best feasible row of the table; ties keep the canonically earliest.

    Evaluator values are filled only for the elements of feasible rows, into
    one array indexed by element id (:meth:`Evaluator.values_by_id`), and
    gathered per row from it.
    """
    m = lookup_metric(metric)
    lower_better = m.orientation is ScoreOrientation.LOWER_BETTER
    dt_length = total_edge_length(delaunay(table.point_set))
    feasible = np.flatnonzero(feasible_rows(table, constraint, dt_length))
    if not len(feasible):
        return None
    ids, element = table.element_ids(m.decomposition)
    ids = ids[feasible]
    scores = evaluator.values_by_id(metric, ids, element)[ids]
    del ids
    if mode is AggregationMode.SUM:
        best = _best_sum(scores, lower_better)
    else:
        best = _best_bottleneck(scores, lower_better)
    return table.triangulation(int(feasible[best]))


# The table of the most recently optimized point set, so that repeated
# queries on one set share one enumeration while memory holds one table.
_last_table: TriangulationTable | None = None


def _table_for(ps: PointSet, cap: int) -> TriangulationTable:
    global _last_table
    check_enumeration_cap(len(ps), cap)
    table = _last_table
    if table is None or table.point_set != ps:
        table = _last_table = None  # release the old table before building the next
        table = _last_table = triangulation_table(ps, cap)
    return table


def optimize(
    ps: PointSet,
    constraint: Constraint,
    metric: str,
    mode: AggregationMode,
    cap: int = DEFAULT_ENUMERATION_CAP,
    evaluator: Evaluator | None = None,
) -> Triangulation | None:
    """Exhaustively search the constrained triangulations for the best one.

    Returns None when no triangulation satisfies the constraint.  The result
    is deterministic: score ties are broken by canonical triangle-set order.
    The triangulation table of the most recent point set is kept, so
    repeated queries on one set enumerate it once.
    """
    # an unknown metric or a bad required edge fails before the enumeration
    lookup_metric(metric)
    normalize_edges(ps, constraint.edges)
    if evaluator is None:
        evaluator = Evaluator(ps)
    return best_triangulation(_table_for(ps, cap), constraint, metric, mode, evaluator)
