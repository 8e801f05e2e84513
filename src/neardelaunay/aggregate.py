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

from .delaunay import cdt, delaunay
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


def comparison(
    ps: PointSet, constraint: Constraint, dt: Triangulation
) -> tuple[str, Triangulation]:
    """The triangulation a constrained result is compared with: the CDT of
    the required edges, otherwise the Delaunay triangulation dt."""
    if isinstance(constraint, RequiredEdges):
        return "cdt", cdt(ps, sorted(constraint.edges))
    return "delaunay", dt


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


# Rows compared per step of the bottleneck scan.
_SCAN_ROWS = 1024


def _best_sum(scores: np.ndarray, lower_better: bool) -> int:
    """Row with the best exact sum; a later row wins only when strictly
    better, so ties keep the earliest."""
    best, best_sum = 0, None
    for lo in range(0, len(scores), _SCAN_ROWS):
        for row, values in enumerate(scores[lo : lo + _SCAN_ROWS].tolist(), lo):
            value = math.fsum(values)
            if best_sum is None or _is_sum_better(value, best_sum, lower_better):
                best, best_sum = row, value
    return best


def _best_bottleneck(scores: np.ndarray, lower_better: bool) -> int:
    """The scan of compare_bottleneck_lex over the rows: a later row replaces
    the best only when closer, so ties keep the earliest.  Each step finds
    the next closer row among a block of rows at once."""
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


def best_triangulation(
    table: TriangulationTable,
    constraint: Constraint,
    metric: str,
    mode: AggregationMode,
    dt_length: float,
    evaluator: Evaluator,
) -> Triangulation | None:
    """Best feasible row of the table; ties keep the canonically earliest.

    Evaluator values are filled only for the elements of feasible rows,
    then gathered per row.
    """
    m = lookup_metric(metric)
    lower_better = m.orientation is ScoreOrientation.LOWER_BETTER
    feasible = np.flatnonzero(feasible_rows(table, constraint, dt_length))
    if not len(feasible):
        return None
    ids, element = table.element_ids(m.decomposition)
    ids = ids[feasible]
    used, at = np.unique(ids.ravel(), return_inverse=True)
    values = np.array(
        [evaluator.element_value(metric, element(e)) for e in used.tolist()], dtype=float
    )
    scores = values[at].reshape(ids.shape)
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
    check_enumeration_cap(ps, cap)
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
    lookup_metric(metric)  # an unknown name fails before the enumeration
    dt_length = total_edge_length(delaunay(ps))
    if evaluator is None:
        evaluator = Evaluator(ps)
    return best_triangulation(
        _table_for(ps, cap), constraint, metric, mode, dt_length, evaluator
    )
