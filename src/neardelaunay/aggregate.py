"""Aggregate element scores and search for the best constrained triangulation.

Two aggregations: the plain sum, and worst-first lexicographic comparison
("bottleneck").  Optimization is exhaustive: every triangulation within the
enumeration cap is checked against the constraint, as rows of the point
set's triangulation table, and every row that can still win is scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .delaunay import cdt, delaunay, normalize_edges
from .errors import MismatchedPointSets, NearDelaunayError
from .geom import PointSet
from .metrics import Evaluator, ScoreOrientation, lookup_metric
from .triangulation import (
    DEFAULT_ENUMERATION_CAP,
    Constraint,
    RequiredEdges,
    Triangulation,
    check_enumeration_cap,
    feasible_rows,
    total_edge_length,
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
# holds S.
#
# Some entries of a row may be a metric's bound in place of its value (see
# metrics.Metric): never worse than the value.  The interval then holds the
# exact sum of the bounds, so its optimistic end (the high end when higher
# is better, the low end otherwise) is never worse than the exact sum V of
# the row's values.  Its pessimistic end bounds V only when every entry is a
# value.  Both ends are doubles, and math.fsum rounds V correctly, hence
# monotonically: fsum is never better than the optimistic end, and never
# worse than the pessimistic end of an exact row.  So a row whose optimistic
# end lies strictly beyond (worse than) the pessimistic end of some exact
# row has a worse fsum than that row: it can neither win nor tie.  Every
# other row is a candidate, exact ties included.  A row that is not finite
# gives a NaN or infinite end and stays a candidate, so math.fsum decides
# (or raises) on it as before.
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


def _best_sum(
    ids: np.ndarray,
    values: np.ndarray,
    exact: np.ndarray,
    fetch: Callable[[np.ndarray], np.ndarray],
    lower_better: bool,
) -> int:
    """Row of ``ids`` with the best exact sum (``math.fsum``) of
    ``values[ids[row]]``; a later row wins only when strictly better, so
    ties keep the earliest.

    ``values`` holds, per element id, a value where ``exact`` is set and the
    metric's bound elsewhere; ``fetch(ids)`` computes the values of distinct
    ids, in one call per step.  The search is best first.  While the
    candidate row with the most optimistic end (see the comment above)
    holds bounds, their values replace them.  Once that row is exact, the
    bounds of every remaining candidate are replaced too, and ``math.fsum``
    runs on the candidates.  Every step first drops
    the rows that can no longer win.  When every entry is a value from the
    start, the first step is the whole search.  A median required-edge
    ``shrunk_circumcircle`` query at n = 12 computes two or three of its
    75-79 values that are not 1, and keeps about one candidate row.
    """
    # Negated when higher is better, so that lower is better below.  The
    # negation is exact, and fsum of negated values is the negated fsum, so
    # every comparison and tie stays as it was.
    sign = 1.0 if lower_better else -1.0
    values = sign * values

    def ends(row_ids):
        scores = values[row_ids]
        s = scores.sum(axis=-1)
        err = row_ids.shape[-1] * _EPS * np.abs(scores).sum(axis=-1) + _TINY
        return s - err, s + err  # optimistic, pessimistic

    def fill(which):
        which = which[~exact[which]]
        if len(which):
            which = np.unique(which)
            values[which] = sign * fetch(which)
            exact[which] = True
        return len(which)

    rows, row_ids = np.arange(len(ids)), ids
    while True:
        hope, fear = ends(row_ids)
        done = np.ones(len(rows), dtype=bool) if exact.all() else exact[row_ids].all(axis=-1)
        keep = np.flatnonzero(~(hope > np.min(fear, where=done, initial=np.inf)))
        rows, row_ids, hope, done = rows[keep], row_ids[keep], hope[keep], done[keep]
        top = int(np.argmin(hope))
        if not done[top]:
            fill(row_ids[top])
            # The top row is exact now.  Its pessimistic end drops rows by
            # the optimistic ends at hand, which stay optimistic as values
            # replace bounds, before the next gather.
            keep = np.flatnonzero(~(hope > ends(row_ids[top])[1]))
            rows, row_ids = rows[keep], row_ids[keep]
        elif not fill(row_ids):
            break
    best, best_sum = 0, None
    for row, row_values in zip(rows.tolist(), values[row_ids].tolist()):
        value = math.fsum(row_values)
        if best_sum is None or value < best_sum:
            best, best_sum = row, value
    return best


def _best_bottleneck(scores: np.ndarray, lower_better: bool) -> int:
    """Row whose values, sorted worst first, compare best: the first entry
    that differs from the best row's by more than ``LEX_TOLERANCE`` decides,
    the better value winning.  The rows are scanned in order and a later row
    replaces the best only when closer, so ties keep the earliest.

    A screen first drops the rows that can never replace the best.  Row j
    replaces it only when its worst entry is better, or within the
    tolerance; so each replacement moves the best's worst entry by at most
    the tolerance the worse way.  Whichever rows were replaced, before row j
    the best's worst entry lies within j tolerances of the best worst entry
    P of rows 0..j-1 (the row that has it either replaced the best or tied
    with it), and row j can replace it only within j + 1.  The screen drops
    row j when its worst entry lies beyond P by more than 2 (j + 1)
    tolerances plus eps |P|, which covers the rounding of the scan's
    differences and of the screen's own sum.  Dropped rows never replace
    the best, so the scan keeps the same sequence of replacements; a
    min-length query at n = 12 keeps about 500 of 14,000 rows.

    Each step of the scan finds the next closer row among a block of rows at
    once.  A block is 8 rows after each closer row and doubles, up to 1,024
    rows, while none is found, so the closer rows of a query do not each
    cost a full block."""
    if scores.shape[1] == 0:
        return 0
    pick = np.maximum if lower_better else np.minimum  # NaNs kept, as by max
    worst = scores[:, 0]
    for column in scores.T[1:]:  # three times as fast as a max along the rows
        worst = pick(worst, column)
    worst = worst if lower_better else -worst  # lower is better
    prefix = np.minimum.accumulate(worst)[:-1]
    reach = prefix + (2 * LEX_TOLERANCE * np.arange(2, len(worst) + 1) + _EPS * np.abs(prefix))
    kept = np.flatnonzero(np.concatenate(([True], ~(worst[1:] > reach))))
    worst_first = np.sort(scores[kept], axis=1)
    if lower_better:
        worst_first = worst_first[:, ::-1]
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
    return int(kept[best])


def best_triangulation(
    evaluator: Evaluator,
    constraint: Constraint,
    metric: str,
    mode: AggregationMode,
) -> Triangulation | None:
    """Best feasible row of the evaluator's table (:meth:`Evaluator.table`);
    ties keep the canonically earliest.

    Values go into one array indexed by element id, gathered per row from
    it, and only for the ids of feasible rows, which ``np.bincount`` marks
    without a sort (:meth:`Evaluator.fill`).  The bottleneck scan fills
    every such element.  The sum asks for the metric's ``bound``, so it
    starts from the bounds of the uncached elements where the metric has
    one, and computes the values only of the rows that can still win
    (:func:`_best_sum`).
    """
    m = lookup_metric(metric)
    lower_better = m.orientation is ScoreOrientation.LOWER_BETTER
    table = evaluator.table()
    dt_length = total_edge_length(evaluator.delaunay)
    feasible = np.flatnonzero(feasible_rows(table, constraint, dt_length))
    if not len(feasible):
        return None
    ids, element = table.element_ids(m.decomposition)
    ids = ids[feasible]
    used = np.flatnonzero(np.bincount(ids.ravel()))
    values = np.zeros(int(used[-1]) + 1 if len(used) else 0)
    exact = np.ones(len(values), dtype=bool)

    def fill(which: np.ndarray, bound: bool = False):
        return evaluator.fill(metric, list(map(element, which.tolist())), bound)

    values[used], exact[used] = fill(used, mode is AggregationMode.SUM)
    if mode is AggregationMode.SUM:
        best = _best_sum(ids, values, exact, lambda which: fill(which)[0], lower_better)
    else:
        best = _best_bottleneck(values[ids], lower_better)
    return table.triangulation(int(feasible[best]))


# The evaluator of the most recently optimized point set, so that repeated
# queries on one set share one enumeration and one value cache while memory
# holds one table.
_last_evaluator: Evaluator | None = None


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
    Without an ``evaluator``, the one of the most recent point set is kept,
    so repeated queries on one set enumerate it once; one that is passed is
    used but not kept.  Raises MismatchedPointSets when it is over another
    point set.
    """
    global _last_evaluator
    # an unknown metric or a bad required edge fails before the enumeration
    lookup_metric(metric)
    normalize_edges(ps, constraint.edges)
    check_enumeration_cap(len(ps), cap)
    if evaluator is None:
        if _last_evaluator is None or _last_evaluator.point_set != ps:
            _last_evaluator = Evaluator(ps)  # drops the old table before the next is built
        evaluator = _last_evaluator
    elif evaluator.point_set != ps:
        raise MismatchedPointSets("the evaluator is not over the point set")
    evaluator.table(cap)
    return best_triangulation(evaluator, constraint, metric, mode)
