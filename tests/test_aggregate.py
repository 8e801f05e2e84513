import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from neardelaunay import aggregate
from neardelaunay.aggregate import (
    LEX_TOLERANCE,
    AggregationMode,
    ScoreVector,
    aggregate_sum,
    best_triangulation,
    optimize,
)
from neardelaunay.delaunay import cdt, delaunay
from neardelaunay.errors import (
    EnumerationTooLarge,
    InvalidConstraintEdges,
    MismatchedPointSets,
    NearDelaunayError,
)
from neardelaunay.geom import PointSet
from neardelaunay.metrics import ALL_METRICS, METRICS, Evaluator, ScoreOrientation, lookup_metric
from neardelaunay.pointgen import pick_required_edge, random_point_set, wheel_point_set
from neardelaunay.triangulation import (
    MaxDegree,
    MaxTotalLength,
    MinTotalLength,
    RequiredEdges,
    enumerate_triangulations,
    feasible_rows,
    satisfies,
    total_edge_length,
)

from oracles import (
    Comparison,
    IncomparableScores,
    best_by_scan,
    block_best_bottleneck,
    compare_bottleneck_lex,
    enumerate_by_frozenset_walk,
    filtered_best_sum,
    full_fill_best_triangulation,
    scan_best_sum,
    similarity_transform,
    unique_best_triangulation,
    unscreened_best_bottleneck,
)


def lower(values):
    return ScoreVector("opposing_angles", ScoreOrientation.LOWER_BETTER, tuple(values))


def higher(values):
    return ScoreVector("lens", ScoreOrientation.HIGHER_BETTER, tuple(values))


class TestAggregateSum:
    def test_perfect_vector(self):
        assert aggregate_sum(lower([0.0, 0.0, 0.0])) == 0.0

    def test_single(self):
        assert aggregate_sum(lower([0.75])) == 0.75

    def test_permutation_invariant(self):
        assert aggregate_sum(lower([0.1, 0.5, 0.2])) == aggregate_sum(
            lower([0.5, 0.2, 0.1])
        )


class TestAggregate:
    def test_sum_mode_is_exact_sum(self):
        sv = lower([0.1, 0.5, 0.2])
        assert aggregate.aggregate(sv, AggregationMode.SUM) == aggregate_sum(sv)

    def test_bottleneck_mode_is_worst_element(self):
        assert aggregate.aggregate(lower([0.1, 0.5, 0.2]), AggregationMode.BOTTLENECK_LEX) == 0.5
        assert aggregate.aggregate(higher([3.0, 1.0, 2.0]), AggregationMode.BOTTLENECK_LEX) == 1.0

    def test_no_elements(self):
        for mode in AggregationMode:
            assert aggregate.aggregate(lower([]), mode) == 0.0


class TestComparison:
    def test_required_edges_compare_with_cdt(self, p4):
        name, t = aggregate.comparison(p4, RequiredEdges([(0, 1)]))
        assert name == "cdt"
        assert t.triangles == cdt(p4, [(0, 1)]).triangles

    def test_other_constraints_compare_with_delaunay(self, p4):
        dt = delaunay(p4)
        for c in (MinTotalLength(1.2), MaxTotalLength(0.8), MaxDegree(5)):
            assert aggregate.comparison(p4, c) == ("delaunay", dt)


class TestBottleneckLex:
    def test_lower_better_second_entry_decides(self):
        assert (
            compare_bottleneck_lex(lower([0.5, 0.2]), lower([0.5, 0.1]))
            is Comparison.B_CLOSER
        )

    def test_higher_better_ascending_sort(self):
        a = higher([math.pi, 1.0])
        b = higher([math.pi, 1.2])
        assert compare_bottleneck_lex(a, b) is Comparison.B_CLOSER

    def test_identical_vectors_equal(self):
        a = lower([0.3, 0.1, 0.2])
        assert compare_bottleneck_lex(a, lower([0.3, 0.1, 0.2])) is Comparison.EQUAL

    def test_tolerance_absorbs_noise(self):
        a = lower([0.3, 0.1])
        b = lower([0.3 + 1e-13, 0.1 - 1e-13])
        assert compare_bottleneck_lex(a, b) is Comparison.EQUAL

    def test_sorting_is_worst_first(self):
        # unsorted input: the worst entry (0.9) ties, the next decides
        a = lower([0.1, 0.9, 0.5])
        b = lower([0.9, 0.4, 0.2])
        assert compare_bottleneck_lex(a, b) is Comparison.B_CLOSER

    def test_incomparable(self):
        with pytest.raises(IncomparableScores):
            compare_bottleneck_lex(lower([0.1]), higher([0.1]))
        with pytest.raises(IncomparableScores):
            compare_bottleneck_lex(lower([0.1]), lower([0.1, 0.2]))


class TestOptimize:
    def test_unconstrained_returns_delaunay(self, p4):
        for metric in ALL_METRICS:
            for mode in AggregationMode:
                best = optimize(p4, RequiredEdges([]), metric, mode)
                assert best.triangles == delaunay(p4).triangles

    def test_unconstrained_returns_delaunay_random_sweep(self):
        for seed in range(5):
            ps = random_point_set(8, seed=700 + seed)
            expected = delaunay(ps).triangles
            ev = Evaluator(ps)
            for metric in ALL_METRICS:
                for mode in AggregationMode:
                    best = optimize(ps, RequiredEdges([]), metric, mode, evaluator=ev)
                    assert best.triangles == expected

    def test_unique_feasible(self, p4):
        for metric in ("opposing_angles", "shrunk_circumcircle"):
            for mode in AggregationMode:
                best = optimize(p4, RequiredEdges([(0, 1)]), metric, mode)
                assert best.triangles == ((0, 1, 2), (0, 1, 3))

    def test_infeasible_returns_none(self, p4):
        assert optimize(p4, MaxTotalLength(0.5), "lens", AggregationMode.SUM) is None

    def test_unknown_metric_rejected_before_enumeration(self):
        # 13 points exceed the cap: building the table first would raise
        # EnumerationTooLarge instead
        ps = random_point_set(13, seed=3)
        with pytest.raises(NearDelaunayError, match="unknown metric 'sharpness'"):
            optimize(ps, MaxDegree(5), "sharpness", AggregationMode.SUM)

    @pytest.mark.parametrize("edge", [(0, 1.5), (0, True), (True, 0), (0, 9), (3, 3), (0, 1, 2)])
    def test_bad_required_edge_rejected(self, edge):
        # not "no feasible triangulation" (None): (0, True) is not edge (0, 1),
        # and six points have no point 9
        ps = random_point_set(6, seed=1)
        with pytest.raises(InvalidConstraintEdges, match="bad edge"):
            optimize(ps, RequiredEdges([edge]), "lens", AggregationMode.SUM)

    def test_bad_required_edge_rejected_before_enumeration(self):
        # 13 points exceed the cap: building the table first would raise
        # EnumerationTooLarge instead
        ps = random_point_set(13, seed=3)
        with pytest.raises(InvalidConstraintEdges, match=r"bad edge \(0, 13\)"):
            optimize(ps, RequiredEdges([(0, 13)]), "lens", AggregationMode.SUM)

    def test_evaluator_of_another_set_rejected(self):
        ps, other = random_point_set(7, 1), random_point_set(7, 2)
        with pytest.raises(MismatchedPointSets):
            optimize(ps, MaxDegree(5), "lens", AggregationMode.SUM, evaluator=Evaluator(other))

    def test_cap_propagates(self):
        ps = random_point_set(8, seed=2)
        with pytest.raises(EnumerationTooLarge):
            optimize(ps, RequiredEdges([]), "lens", AggregationMode.SUM, cap=6)

    def test_deterministic(self):
        ps = random_point_set(8, seed=3)
        c = MaxDegree(5)
        runs = [
            optimize(ps, c, "dual_edge_ratio", AggregationMode.BOTTLENECK_LEX).triangles
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_result_satisfies_constraint(self):
        ps = random_point_set(8, seed=4)
        dt_len = total_edge_length(delaunay(ps))
        for c in (MinTotalLength(1.1), MaxDegree(5)):
            for mode in AggregationMode:
                best = optimize(ps, c, "lens", mode)
                if best is not None:
                    assert satisfies(best, c, dt_len)

    def test_sum_winner_beats_all_feasible(self):
        ps = random_point_set(7, seed=5)
        ev = Evaluator(ps)
        c = MinTotalLength(1.05)
        dt_len = total_edge_length(delaunay(ps))
        best = optimize(ps, c, "opposing_angles", AggregationMode.SUM, evaluator=ev)
        best_sum = math.fsum(ev.values(best, "opposing_angles"))
        for t in enumerate_triangulations(ps):
            if not satisfies(t, c, dt_len):
                continue
            other = math.fsum(ev.values(t, "opposing_angles"))
            if t.triangles < best.triangles:
                assert other > best_sum  # anything earlier must be strictly worse
            else:
                assert other >= best_sum

    def test_required_edge_layout_matches_cdt_for_most_metrics(self):
        ps = random_point_set(9, seed=6)
        dt = delaunay(ps)
        required = next(
            (i, j)
            for i in range(9)
            for j in range(i + 1, 9)
            if not dt.has_edge(i, j)
        )
        reference = cdt(ps, [required]).triangles
        agree = sum(
            optimize(ps, RequiredEdges([required]), m, AggregationMode.SUM).triangles
            == reference
            for m in ALL_METRICS
        )
        assert agree >= 4

    def test_bottleneck_winner_matches_plain_sort(self):
        # reimplementation check: worst-first tuples compared with plain
        # Python ordering must pick the same winner (no near-ties here)
        ps = random_point_set(7, seed=11)
        ev = Evaluator(ps)
        c = MinTotalLength(1.05)
        dt_len = total_edge_length(delaunay(ps))
        feasible = [
            t for t in enumerate_triangulations(ps) if satisfies(t, c, dt_len)
        ]
        assert feasible
        for metric, reverse in (("opposing_angles", False), ("lens", True)):
            got = optimize(ps, c, metric, AggregationMode.BOTTLENECK_LEX, evaluator=ev)

            def key(t):
                return tuple(sorted(ev.values(t, metric), reverse=not reverse))

            # lower-better: smallest descending-sorted tuple wins;
            # higher-better: largest ascending-sorted tuple wins
            expected = min(feasible, key=key) if not reverse else max(feasible, key=key)
            assert got.triangles == expected.triangles

    def test_similarity_invariance_of_choice(self):
        ps = random_point_set(7, seed=8)
        c = MaxDegree(5)
        base = {
            (m, mode): optimize(ps, c, m, mode).triangles
            for m in ALL_METRICS
            for mode in AggregationMode
        }
        moved = similarity_transform(
            ps, rotation=1.1, scale=3.7, translation=(-4.0, 2.5), reflect=True
        )
        for (m, mode), tris in base.items():
            assert optimize(moved, c, m, mode).triangles == tris


SEARCH_SETS = {
    "random7": lambda: random_point_set(7, seed=71),
    "random8": lambda: random_point_set(8, seed=81),
    "wheel": wheel_point_set,
}


class TestSearchOracle:
    """optimize against a satisfies filter plus a per-candidate scan over the
    frozenset walk's candidates, on every metric, constraint kind and mode."""

    @pytest.mark.parametrize("name", sorted(SEARCH_SETS))
    def test_matches_scan(self, name):
        ps = SEARCH_SETS[name]()
        dt = delaunay(ps)
        dt_len = total_edge_length(dt)
        candidates = enumerate_by_frozenset_walk(ps)
        constraints = (
            RequiredEdges([pick_required_edge(ps)]),
            MinTotalLength(1.1),
            MinTotalLength(1.0),
            MaxTotalLength(0.9),
            MaxTotalLength(1.0),
            MaxDegree(4),
            MaxDegree(5),
        )
        ours_ev, scan_ev = Evaluator(ps), Evaluator(ps)
        for c in constraints:
            for metric in ALL_METRICS:
                for mode in AggregationMode:
                    got = optimize(ps, c, metric, mode, evaluator=ours_ev)
                    want = best_by_scan(candidates, c, metric, mode, dt_len, scan_ev)
                    assert (got and got.triangles) == (want and want.triangles), (c, metric, mode)
                    if c in (MinTotalLength(1.0), MaxTotalLength(1.0)):
                        # the Delaunay triangulation stays feasible, and it is perfect
                        assert got.triangles == dt.triangles, (c, metric, mode)

    @pytest.mark.parametrize("shift", [(4.0, 0.5), (3.3, 0.7)], ids=["dyadic", "rounded"])
    def test_ties_keep_earliest(self, shift):
        # A near-square and a translated copy: flipping the diagonal of
        # either copy lengthens the triangulation equally and scores the
        # same, exactly under the dyadic shift and up to rounding otherwise.
        square = [(0.0, 0.0), (1.0, 0.0625), (1.0625, 1.0), (0.0625, 0.9375)]
        ps = PointSet(square + [(x + shift[0], y + shift[1]) for x, y in square])
        dt_len = total_edge_length(delaunay(ps))
        c = MinTotalLength(1.001)
        candidates = enumerate_by_frozenset_walk(ps)
        feasible = [t for t in candidates if satisfies(t, c, dt_len)]
        ev = Evaluator(ps)
        sum_ties = tolerance_ties = 0
        for metric in ALL_METRICS:
            for mode in AggregationMode:
                got = optimize(ps, c, metric, mode, evaluator=ev)
                want = best_by_scan(candidates, c, metric, mode, dt_len, ev)
                assert got.triangles == want.triangles, (metric, mode)
                best = ScoreVector.from_scores(metric, ev.scores(want, metric))
                for t in feasible:
                    if t == want:
                        continue
                    sv = ScoreVector.from_scores(metric, ev.scores(t, metric))
                    if mode is AggregationMode.SUM:
                        tied = aggregate_sum(sv) == aggregate_sum(best)
                        sum_ties += tied
                    else:
                        tied = compare_bottleneck_lex(sv, best) is Comparison.EQUAL
                        tolerance_ties += tied and sv.worst_first() != best.worst_first()
                    assert not tied or t.triangles > want.triangles, (metric, mode)
        # the fixture must exercise both tie-breaks
        assert sum_ties and tolerance_ties


class TestOptimizeMemo:
    def test_cap_checked_on_memo_hit(self):
        ps = random_point_set(12, seed=1202)
        optimize(ps, MaxDegree(5), "opposing_angles", AggregationMode.SUM)
        assert aggregate._last_evaluator.point_set == ps
        with pytest.raises(EnumerationTooLarge):
            optimize(ps, MaxDegree(5), "opposing_angles", AggregationMode.SUM, cap=11)

    def test_alternating_sets_match_fresh_tables(self):
        sets = [random_point_set(7, seed=72), random_point_set(8, seed=82)]
        queries = [
            (MinTotalLength(1.1), "lens", AggregationMode.SUM),
            (MaxDegree(4), "dual_area_overlap", AggregationMode.BOTTLENECK_LEX),
            (MaxTotalLength(0.95), "triangular_lens", AggregationMode.BOTTLENECK_LEX),
        ]
        for c, metric, mode in queries:
            for ps in sets + sets[::-1]:
                got = optimize(ps, c, metric, mode)
                assert aggregate._last_evaluator.point_set == ps
                fresh = best_triangulation(Evaluator(ps), c, metric, mode)
                assert (got and got.triangles) == (fresh and fresh.triangles)

    def test_kept_evaluator_released_by_the_next_set(self):
        a, b = random_point_set(7, seed=73), random_point_set(8, seed=83)
        optimize(a, MaxDegree(5), "lens", AggregationMode.SUM)
        kept = weakref.ref(aggregate._last_evaluator)
        assert kept().point_set == a
        optimize(b, MaxDegree(5), "lens", AggregationMode.SUM)
        gc.collect()
        assert kept() is None
        assert aggregate._last_evaluator.point_set == b

    def test_passed_evaluator_not_kept(self):
        ps, other = random_point_set(7, seed=74), random_point_set(7, seed=75)
        optimize(ps, MaxDegree(5), "lens", AggregationMode.SUM)
        kept = aggregate._last_evaluator
        for s in (ps, other):
            optimize(s, MaxDegree(5), "lens", AggregationMode.SUM, evaluator=Evaluator(s))
            assert aggregate._last_evaluator is kept


def _tie_squares(*offsets):
    """Translated copies of a near-square: a triangulation's score changes
    only in the copies it triangulates differently, so rows tie widely
    (exactly under dyadic offsets)."""
    square = [(0.0, 0.0), (1.0, 0.0625), (1.0625, 1.0), (0.0625, 0.9375)]
    return PointSet([(x + dx, y + dy) for dx, dy in offsets for x, y in square])


DENSE_SETS = {
    **{f"random{n}": lambda n=n: random_point_set(n, seed=1300 + n) for n in range(6, 12)},
    "wheel": wheel_point_set,
    "squares2": lambda: _tie_squares((0.0, 0.0), (4.0, 0.5)),
    "squares2-rounded": lambda: _tie_squares((0.0, 0.0), (3.3, 0.7)),
    "squares3": lambda: _tie_squares((0.0, 0.0), (4.0, 0.5), (8.0, 1.5)),
}


def _exact_sums(table, constraint, metric, dt_length, ev):
    """math.fsum of every feasible row's element values."""
    ids, element = table.element_ids(lookup_metric(metric).decomposition)
    ids = ids[feasible_rows(table, constraint, dt_length)]
    value = {e: ev.element_value(metric, element(e)) for e in np.unique(ids).tolist()}
    return [math.fsum(map(value.__getitem__, row)) for row in ids.tolist()]


class TestDenseSearchOracle:
    """best_triangulation against tests/oracles.py unique_best_triangulation,
    the search before dense element values, the candidate filter and the
    growing bottleneck blocks, on every metric, constraint kind and mode."""

    @pytest.mark.parametrize("name", sorted(DENSE_SETS))
    def test_same_row(self, name):
        ps = DENSE_SETS[name]()
        dt_len = total_edge_length(delaunay(ps))
        edge = pick_required_edge(ps)
        constraints = (
            RequiredEdges([edge] if edge else []),
            MinTotalLength(1.1),
            MinTotalLength(1.0),
            MaxTotalLength(0.9),
            MaxTotalLength(1.0),
            MaxDegree(4),
            MaxDegree(5),
        )
        ev = Evaluator(ps)
        table = ev.table()
        tied = 0
        for c in constraints:
            for metric in ALL_METRICS:
                for mode in AggregationMode:
                    got = best_triangulation(ev, c, metric, mode)
                    want = unique_best_triangulation(ev, c, metric, mode)
                    assert (got and got.triangles) == (want and want.triangles), (c, metric, mode)
                    if name.startswith("squares") and want and mode is AggregationMode.SUM:
                        tied += _exact_sums(table, c, metric, dt_len, ev).count(
                            math.fsum(ev.values(want, metric))
                        ) > 1
        if name.startswith("squares"):
            assert tied  # some best rows must tie exactly with later ones


def _stencil_jitter(seed):
    """One fixed random 12-point set with every point moved by up to 0.004,
    as the optimize benchmark draws its sets."""
    rng = random.Random(seed)
    return PointSet(
        [
            (x + rng.uniform(-0.004, 0.004), y + rng.uniform(-0.004, 0.004))
            for x, y in random_point_set(12, seed=1400).points
        ]
    )


BOUNDED_SETS = {
    **{f"dense-{name}": make for name, make in DENSE_SETS.items()},
    **{f"stencil{seed}": lambda seed=seed: _stencil_jitter(seed) for seed in range(4)},
    # the offset sets of tests/test_metrics.py SEARCH_SETS
    **{
        f"offset{offset:g}": lambda offset=offset: PointSet(
            [(x + offset, y + offset) for x, y in random_point_set(12, 2300).points]
        )
        for offset in (1e6, 1e7)
    },
}
BOUNDED_METRICS = [m.name for m in METRICS if m.bound is not None]


class TestBoundedSearch:
    """best_triangulation with a fresh Evaluator, whose sum starts from the
    metric's bounds, against tests/oracles.py full_fill_best_triangulation,
    which fills every value, on every constraint kind and both modes."""

    @pytest.mark.parametrize("name", sorted(BOUNDED_SETS))
    def test_same_row_as_the_full_fill(self, name):
        ps = BOUNDED_SETS[name]()
        edge = pick_required_edge(ps)
        constraints = (
            RequiredEdges([edge] if edge else []),
            MinTotalLength(1.0),
            MinTotalLength(1.1),
            MaxTotalLength(0.9),
            MaxDegree(4),
        )
        ev = Evaluator(ps)
        table = ev.table()
        tied = 0
        for c in constraints:
            for metric in BOUNDED_METRICS:
                for mode in AggregationMode:
                    got = best_triangulation(Evaluator(ps), c, metric, mode)
                    want = full_fill_best_triangulation(ev, c, metric, mode)
                    assert (got and got.triangles) == (want and want.triangles), (c, metric, mode)
                    if want and mode is AggregationMode.SUM:
                        dt_len = total_edge_length(delaunay(ps))
                        tied += _exact_sums(table, c, metric, dt_len, ev).count(
                            math.fsum(ev.values(want, metric))
                        ) > 1
        if name in ("dense-squares2", "dense-squares3"):  # dyadic offsets
            assert tied  # some best rows must tie exactly with later ones

    def test_sum_query_computes_few_values(self):
        # A required-edge sum query fills the values of only some of the
        # triangles of its feasible rows; the bounds settle the rest.
        for seed in range(4):
            ps = _stencil_jitter(seed)
            c = RequiredEdges([pick_required_edge(ps)])
            ev = Evaluator(ps)
            table = ev.table()
            best_triangulation(ev, c, "shrunk_circumcircle", AggregationMode.SUM)
            feasible = feasible_rows(table, c, total_edge_length(delaunay(ps)))
            occupied = [
                e for e in np.unique(table.rows[feasible]).tolist() if ev.inside(table.triangles[e])
            ]
            computed = [tri for tri in ev._cache["shrunk_circumcircle"] if ev.inside(tri)]
            assert len(computed) < len(occupied) / 4, (seed, len(computed), len(occupied))


def _row_by_row_bottleneck(scores, lower_better):
    """compare_bottleneck_lex over the rows one by one."""
    orientation = (
        ScoreOrientation.LOWER_BETTER if lower_better else ScoreOrientation.HIGHER_BETTER
    )
    vectors = [ScoreVector("m", orientation, tuple(row)) for row in scores.tolist()]
    best = 0
    for row, sv in enumerate(vectors):
        if compare_bottleneck_lex(sv, vectors[best]) is Comparison.A_CLOSER:
            best = row
    return best


def dense_best_sum(scores, lower_better):
    """_best_sum on a score array, each entry its own element id and a value."""
    scores = np.asarray(scores, dtype=float)
    ids = np.arange(scores.size).reshape(scores.shape)
    values = scores.ravel().copy()
    exact = np.ones(values.shape, dtype=bool)
    return aggregate._best_sum(ids, values, exact, values.__getitem__, lower_better)


class TestBestSum:
    """The best-first sum against tests/oracles.py scan_best_sum, which takes
    math.fsum of every row, and filtered_best_sum, which fills every value."""

    @staticmethod
    def check(scores):
        scores = np.asarray(scores, dtype=float)
        for lower_better in (True, False):
            want = scan_best_sum(scores, lower_better)
            assert dense_best_sum(scores, lower_better) == want, lower_better
            assert filtered_best_sum(scores, lower_better) == want, lower_better

    def test_cancellation_in_every_order(self):
        rng = np.random.default_rng(5)
        # exact sums 2, 2 + 2**-52, 2 - 2**-52 and 3; the float sum of a row
        # depends on its order
        multisets = [
            [1e16, 1.0, -1e16, 1.0, 0.0, 0.0],
            [1e16, 1.0, -1e16, 1.0 + 2**-52, 0.0, 0.0],
            [1e16, 1.0, -1e16, 1.0 - 2**-52, 0.0, 0.0],
            [1e16, 2.0, -1e16, 1.0, 0.0, 0.0],
        ]
        for _ in range(20):
            rows = [rng.permutation(multisets[rng.integers(4)]) for _ in range(60)]
            scores = np.array(rows)
            sums = scores.sum(axis=1)
            exact = [math.fsum(r) for r in rows]
            assert any(s != e for s, e in zip(sums.tolist(), exact))
            self.check(scores)

    def test_exact_ties_that_float_sums_split(self):
        # equal exact sums, unequal float sums: the earliest row wins,
        # not the row with the best float sum
        scores = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [0.2, 0.3, 0.1]] * 3)
        sums = scores.sum(axis=1)
        assert len(set(sums.tolist())) > 1
        assert len({math.fsum(r) for r in scores.tolist()}) == 1
        assert dense_best_sum(scores, True) == 0
        assert dense_best_sum(scores[1:], False) == 0
        self.check(scores)
        self.check(scores[::-1])

    def test_ulp_apart_rows(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            base = rng.uniform(0, 1, size=rng.integers(1, 30))
            rows = []
            for _ in range(200):
                row = rng.permutation(base)
                j = rng.integers(len(row))
                row[j] = np.nextafter(row[j], rng.choice([-np.inf, np.inf]))
                rows.append(row)
            self.check(rows)

    def test_all_rows_equal(self):
        self.check(np.full((50, 7), 0.25))
        assert dense_best_sum(np.full((50, 7), 0.25), True) == 0

    def test_zero_columns(self):
        self.check(np.zeros((4, 0)))
        assert dense_best_sum(np.zeros((4, 0)), False) == 0

    @pytest.mark.parametrize("ties", [False, True])
    def test_bounds_in_place_of_values(self, ties):
        # Rows share element ids, as table rows do.  Each bound is the value
        # moved the optimistic way, or the value itself; some ids start
        # exact.  The search must pick the exact scan's row and compute
        # values only for some of the ids.
        rng = np.random.default_rng(8 + ties)
        computed = total = 0
        for _ in range(40):
            count = int(rng.integers(5, 60))
            ids = rng.integers(0, count, size=(int(rng.integers(1, 300)), int(rng.integers(1, 12))))
            if ties:  # dyadic values: exact sums tie across rows
                true = rng.integers(0, 8, size=count) / 8.0
            else:
                true = rng.uniform(0.0, 1.0, size=count)
            slack = rng.choice([0.0, 1e-12, 0.01, 0.5], size=count)
            start_exact = rng.random(count) < 0.2
            for lower_better in (True, False):
                bound = true - slack if lower_better else true + slack
                values = np.where(start_exact, true, bound)
                exact = start_exact.copy()
                asked = []

                def fetch(which):
                    asked.extend(which.tolist())
                    return true[which]

                got = aggregate._best_sum(ids, values, exact, fetch, lower_better)
                assert got == scan_best_sum(true[ids], lower_better), lower_better
                assert len(asked) == len(set(asked)) and not start_exact[asked].any()
                computed += len(asked)
                total += len(np.setdiff1d(np.unique(ids), np.flatnonzero(start_exact)))
        assert computed < total / 2, (computed, total)


class TestBestBottleneck:
    """The screened scan of _best_bottleneck against tests/oracles.py
    unscreened_best_bottleneck and block_best_bottleneck (fixed 1,024-row
    blocks), and a row-by-row compare_bottleneck_lex scan."""

    @staticmethod
    def check(scores):
        for lower_better in (True, False):
            got = aggregate._best_bottleneck(scores, lower_better)
            assert got == unscreened_best_bottleneck(scores, lower_better), lower_better
            assert got == block_best_bottleneck(scores, lower_better), lower_better
            assert got == _row_by_row_bottleneck(scores, lower_better), lower_better
        return got

    @pytest.mark.parametrize("magnitude", [1.0, 1e6])
    @pytest.mark.parametrize("lower_better", [True, False])
    @pytest.mark.parametrize("drift", [1, -1])
    def test_screen_keeps_drifting_chains(self, magnitude, lower_better, drift):
        # Each chain row ties the one before on its worst entry, 0.6
        # tolerances away, and is closer on a later entry, so every chain
        # row replaces the best and the best's worst entry drifts by 0.6
        # tolerances a row.  Drifting the worse way, the k-th chain row lies
        # 0.6 k tolerances beyond row 0's worst entry, the best before it,
        # and the screen must keep it.  At 1e6 one ulp (1.2e-10) exceeds the
        # tolerance, so rounded steps tie only where they are equal.  The
        # noise rows in between never replace the best.
        rng = np.random.default_rng(11)
        rows = 2000
        sign = 1.0 if lower_better else -1.0
        noise = rng.random(rows) < 0.5
        noise[0] = False
        step = np.cumsum(~noise)  # position along the chain
        worst = magnitude * (1.0 + sign * 0.5) + drift * 0.6 * LEX_TOLERANCE * step
        second = magnitude * (0.5 - sign * step / (4 * rows))
        worst[noise] += sign * magnitude * rng.uniform(1e-3, 0.3, size=noise.sum())
        scores = np.column_stack([worst, second, np.full(rows, magnitude)])
        got = aggregate._best_bottleneck(scores, lower_better)
        assert got == _row_by_row_bottleneck(scores, lower_better)
        assert got == unscreened_best_bottleneck(scores, lower_better)
        if magnitude == 1.0:
            # the chain runs to its last row, whichever way it drifts
            assert got == np.flatnonzero(~noise)[-1]

    def test_chains_below_the_tolerance(self):
        # Each row's worst entry moves 0.6 tolerances from the row before,
        # so neighbours tie on it and rows two apart do not: which rows
        # become best depends on the order of the scan.
        rng = np.random.default_rng(7)
        step = 0.6 * LEX_TOLERANCE
        order_decides = 0
        for rows in (50, 1100, 3000):
            for drift in (1, -1, 0):
                first = 0.9 + drift * step * np.arange(rows)
                if drift == 0:
                    first = 0.9 + step * rng.integers(-1, 2, size=rows).cumsum()
                scores = np.column_stack(
                    [first, rng.uniform(0, 0.5, size=rows), rng.uniform(0, 0.1, size=rows)]
                )
                self.check(scores)
                # exact worst-first order, without the tolerance, picks another row
                plain = min(range(rows), key=lambda r: sorted(scores[r].tolist())[::-1])
                order_decides += aggregate._best_bottleneck(scores, True) != plain
        assert order_decides

    @pytest.mark.parametrize("closer_at", [8, 9, 24, 25, 1016, 1017, 1024, 1025, 1026, 2040, 2041, 2049])
    def test_closer_row_at_block_boundaries(self, closer_at):
        # one closer row among 3,100 worse rows, then a second one
        # 8 and 9 rows further, just past the first block after a reset
        for later in (8, 9, 1024):
            scores = np.full((3100, 3), 0.5)
            scores[1:, 2] = 0.6
            scores[closer_at, 2] = 0.4
            scores[closer_at + later, 2] = 0.3
            self.check(scores)
            assert aggregate._best_bottleneck(scores, True) == closer_at + later

    def test_zero_columns(self):
        assert self.check(np.zeros((5, 0))) == 0


def test_dense_query_peak_at_most_the_oracle():
    ps = random_point_set(12, seed=1201)
    ev = Evaluator(ps)
    c = MinTotalLength(1.1)
    for mode in AggregationMode:
        peaks = {}
        for search in (unique_best_triangulation, best_triangulation):
            search(ev, c, "dual_area_overlap", mode)  # warm the values and the table
            tracemalloc.start()
            try:
                search(ev, c, "dual_area_overlap", mode)
                peaks[search.__name__] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["best_triangulation"] <= peaks["unique_best_triangulation"], (mode, peaks)
