import itertools
import math
import random
import tracemalloc

import pytest

from neardelaunay.delaunay import delaunay
from neardelaunay.errors import (
    EnumerationTooLarge,
    InvalidConstraintEdges,
    MismatchedPointSets,
    NearDelaunayError,
    ParseError,
)
from neardelaunay.fileio import (
    parse_points,
    parse_triangulation,
    write_points,
    write_triangulation,
)
from neardelaunay import geom as geom_module, triangulation as triangulation_module
from neardelaunay.geom import PointSet, orientation, similarity_transform
from neardelaunay.pointgen import (
    long_delaunay_point_set,
    random_point_set,
    wheel_point_set,
)
from neardelaunay.triangulation import (
    Decomposition,
    MaxDegree,
    MaxTotalLength,
    MinTotalLength,
    Quadrilateral,
    RequiredEdges,
    Triangulation,
    apex_map,
    apex_triangles,
    edge_diff,
    elements,
    enumerate_triangulations,
    feasible_rows,
    flip_edge,
    interior_quadrilaterals,
    max_degree,
    satisfies,
    total_edge_length,
    triangulation_table,
    validate,
)

from conftest import jittered_circle_points, random_jittered_circle
from oracles import (
    bitmask_table,
    enumerate_by_frozenset_walk,
    flip,
    frozenset_flip,
    level_walk_table,
    pairwise_validate,
)

CATALAN = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132, 9: 429, 10: 1430, 11: 4862, 12: 16796}


class TestValidate:
    def test_delaunay_is_valid(self, p4):
        assert validate(delaunay(p4))

    def test_hull_not_covered(self, p4):
        assert not validate(Triangulation(p4, [(0, 1, 2)]))

    def test_two_triangle_quad(self, p4):
        assert validate(Triangulation(p4, [(0, 1, 2), (0, 1, 3)]))

    def test_overlapping_triangles(self, p4):
        # both diagonals at once: four triangles overlap pairwise
        assert not validate(
            Triangulation(p4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        )

    def test_random_enumeration_all_valid(self):
        ps = random_point_set(7, seed=31)
        for t in enumerate_triangulations(ps):
            assert validate(t)

    def test_overlap_detection_translation_invariant(self, p4):
        from neardelaunay.geom import similarity_transform

        # (0,1,2) and (0,2,3) use every point but overlap near edge (0,2);
        # the verdicts must not change when the coordinates grow
        for translation in ((0.0, 0.0), (1e7, -1e7)):
            far = similarity_transform(p4, translation=translation)
            assert validate(Triangulation(far, [(0, 2, 3), (1, 2, 3)]))
            assert not validate(Triangulation(far, [(0, 1, 2), (0, 2, 3)]))

    def test_orientation_calls_linear_on_a_convex_fan(self, monkeypatch):
        n = 1000
        ps = PointSet(
            (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)
        )
        fan = [(0, i, i + 1) for i in range(1, n - 1)]
        t = Triangulation(ps, fan)
        # the hull is built once per point set, not by validate's pass
        assert len(ps.hull()) == n
        calls = 0

        def counted(a, b, c):
            nonlocal calls
            calls += 1
            return orientation(a, b, c)

        monkeypatch.setattr(triangulation_module, "orientation", counted)
        monkeypatch.setattr(geom_module, "orientation", counted)
        assert validate(t)
        assert calls <= len(t.triangles) + len(t.edges())
        # (0, 500, 501) folded over edge (0, 500) onto the side of 499
        folded = fan[:499] + [(0, 498, 500)] + fan[500:]
        assert not validate(Triangulation(ps, folded))


def _folded(tris, pts, rng):
    """tris with triangle uvq folded over its interior edge uv onto the side
    of the other apex p, or None when no point lies there besides p."""
    (u, v), (p, q) = rng.choice(
        [(e, opp) for e, opp in sorted(apex_map(tris).items()) if len(opp) == 2]
    )
    side = orientation(pts[u], pts[v], pts[p])
    same = [r for r in range(len(pts)) if r not in (u, v, p)
            and orientation(pts[u], pts[v], pts[r]) is side]
    if not same:
        return None
    return [t for t in tris if t != tuple(sorted((u, v, q)))] + [(u, v, rng.choice(same))]


def _mutations(rows, pts, rng):
    """Per row: one triangle replaced, dropped, duplicated or folded, a mix
    with another row, and as many random triples."""
    n = len(pts)
    for tris in rows:
        k = rng.randrange(len(tris))
        yield tris[:k] + (tuple(rng.sample(range(n), 3)),) + tris[k + 1:]
        yield tris[:k] + tris[k + 1:]
        yield tris + tris[k:k + 1]
        if len(tris) > 1:
            yield _folded(tris, pts, rng)
        other = rng.choice(rows)
        half = len(tris) // 2
        yield rng.sample(tris, half) + rng.sample(other, len(tris) - half)
        yield [tuple(rng.sample(range(n), 3)) for _ in tris]


# With points A, B, C, P, Q = 0..4 and hull A B C: triangles A B P, B C P,
# C P Q, C Q A and A Q P.  Every edge count is right wherever P and Q lie,
# so only the side test can tell a fold.
FOLDABLE = [(0, 1, 3), (1, 2, 3), (2, 3, 4), (0, 2, 4), (0, 3, 4)]


class TestValidateMatchesPairwiseOracle:
    """The edge-local validate against the pairwise overlap check it replaced."""

    @staticmethod
    def sets():
        rng = random.Random(1100)
        sets = [random_point_set(n, seed=1100 + 20 * s + n) for n in range(4, 10) for s in range(2)]
        sets.append(wheel_point_set())
        sets += [PointSet(random_jittered_circle(rng, n, j)) for n, j in ((7, 1e-3), (9, 1e-6))]
        return sets

    def test_rows_and_mutations(self):
        rng = random.Random(1101)
        verdicts = []
        for ps in self.sets():
            table = triangulation_table(ps)
            rows = [table.triangulation(r).triangles for r in range(len(table))]
            for tris in rows + [m for m in _mutations(rows, ps.points, rng) if m]:
                ours = validate(Triangulation(ps, tris))
                assert ours == pairwise_validate(Triangulation(ps, tris)), (ps, tris)
                verdicts.append(ours)
        assert 3000 < verdicts.count(True) < verdicts.count(False)

    @pytest.mark.parametrize(
        "points, tris, valid",
        [
            ([(0, 0), (2, 0), (1, 0.5), (1, -0.5)], [(0, 1, 2), (0, 1, 4)], False),
            ([(0, 0), (2, 0), (1, 0.5), (1, -0.5)], [(0, 1, 2), (-1, 0, 1)], False),
            ([(0, 0), (2, 0), (1, 0.5), (1, -0.5)], [], False),
            # unvalidated: point 2 lies inside hull edge (0, 1)
            ([(0, 0), (2, 0), (1, 0), (1, 1)], [(0, 2, 3), (1, 2, 3)], False),
            ([(0, 0), (2, 0), (1, 0), (1, 1)], [(0, 1, 3)], False),
            # unvalidated: point 4 lies on the diagonals of the square
            ([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)],
             [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)], True),
            ([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)],
             [(0, 1, 2), (0, 3, 4), (2, 3, 4)], False),
            # Q inside triangle A P C ...
            ([(0, 0), (4, 0), (2, 4), (2, 1.5), (1.5, 1.8)], FOLDABLE, True),
            # ... or in A B P, where edge (2, 4) has both apexes on one side
            ([(0, 0), (4, 0), (2, 4), (2, 1.5), (2.2, 0.5)], FOLDABLE, False),
            # unvalidated: the degenerate triangle (0, 1, 2) fails the edge
            # test, whether its long side (0, 2) is interior, with apex 1 on
            # its line, ...
            ([(0, 0), (1, 0), (2, 0), (1, 1), (1, -1)],
             [(0, 1, 2), (0, 2, 3), (0, 1, 4), (1, 2, 4)], False),
            # ... or a hull edge, when (0, 1) is interior with apex 2 on its line
            ([(0, 0), (1, 0), (2, 0), (1, 1)], [(0, 1, 2), (0, 1, 3), (1, 2, 3)], False),
        ],
    )
    def test_edge_cases(self, points, tris, valid):
        ps = PointSet(points)
        assert validate(Triangulation(ps, tris)) is valid
        assert pairwise_validate(Triangulation(ps, tris)) is valid


class TestEnumeration:
    def test_p4_two_triangulations(self, p4):
        assert len(list(enumerate_triangulations(p4))) == 2

    @pytest.mark.parametrize("n,expected", sorted(CATALAN.items()))
    def test_convex_counts_are_catalan(self, n, expected):
        ps = jittered_circle_points(n)
        assert len(ps.hull()) == n
        assert sum(1 for _ in enumerate_triangulations(ps)) == expected

    def test_cap_enforced(self):
        ps = random_point_set(8, seed=1)
        with pytest.raises(EnumerationTooLarge):
            list(enumerate_triangulations(ps, cap=7))

    def test_lexicographic_order_no_duplicates(self):
        ps = random_point_set(7, seed=5)
        seen = [t.triangles for t in enumerate_triangulations(ps)]
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_count_matches_maximal_edge_set_oracle(self):
        # completeness beyond convex position: a triangulation is exactly a
        # maximal set of pairwise non-crossing edges
        from oracles import count_triangulations_by_edge_sets

        for n, seeds in ((6, (51, 52, 53)), (7, (61,))):
            for seed in seeds:
                ps = random_point_set(n, seed=seed)
                ours = sum(1 for _ in enumerate_triangulations(ps))
                assert ours == count_triangulations_by_edge_sets(ps)

    def test_delaunay_appears_exactly_once(self):
        ps = random_point_set(8, seed=17)
        dt = delaunay(ps).triangles
        hits = sum(1 for t in enumerate_triangulations(ps) if t.triangles == dt)
        assert hits == 1

    def test_flip_closure(self):
        ps = random_point_set(6, seed=23)
        universe = {t.triangles for t in enumerate_triangulations(ps)}
        for tris in universe:
            tri_set = frozenset(tris)
            for quad in interior_quadrilaterals(Triangulation(ps, tris)):
                flipped = flip(ps, tri_set, (quad.u, quad.v))
                if flipped is not None:
                    assert tuple(sorted(flipped)) in universe


class TestFlipEdge:
    SETS = {
        "random6": lambda: random_point_set(6, seed=61),
        "random7": lambda: random_point_set(7, seed=62),
        "random8": lambda: random_point_set(8, seed=63),
        "wheel7": lambda: wheel_point_set(6),
    }

    @pytest.mark.parametrize("name", SETS)
    def test_flip_matches_frozenset_oracle(self, name):
        ps = self.SETS[name]()
        refused = 0
        for t in enumerate_triangulations(ps):
            tris = frozenset(t.triangles)
            for e in t.edges():
                got = flip(ps, tris, e)
                assert got == frozenset_flip(ps, tris, e)
                refused += got is None and len(t.apexes()[e]) == 2
        assert refused  # some interior edges sit in non-convex quadrilaterals

    def test_refused_flip_leaves_map_untouched(self):
        ps = random_point_set(8, seed=63)
        cases = {"hull": 0, "non-convex": 0, "absent": 0}
        for t in enumerate_triangulations(ps):
            apex = apex_map(t.triangles)
            before = dict(apex)
            absent = next(e for e in itertools.combinations(range(8), 2) if e not in apex)
            for e in [*t.edges(), absent]:
                if flip_edge(ps.points, apex, e) is not None:
                    apex = dict(before)
                    continue
                assert apex == before
                kind = "absent" if e not in before else (
                    "hull" if len(before[e]) == 1 else "non-convex"
                )
                cases[kind] += 1
        assert all(cases.values()), cases

    def test_walk_keeps_map_consistent(self):
        ps = random_point_set(20, seed=64)
        apex = apex_map(delaunay(ps).triangles)
        rng = random.Random(65)
        flips = 0
        while flips < 200:
            edge = rng.choice(sorted(apex))
            before = dict(apex)
            diagonal = flip_edge(ps.points, apex, edge)
            if diagonal is None:
                continue
            flips += 1
            assert edge not in apex and apex[diagonal] == edge
            assert apex == apex_map(sorted(apex_triangles(apex)))
            assert frozenset(apex_triangles(apex)) == frozenset_flip(
                ps, frozenset(apex_triangles(before)), edge
            )
        assert validate(Triangulation(ps, apex_triangles(apex)))


ORACLE_SETS = {
    **{
        f"random{n}-{seed}": lambda n=n, seed=seed: random_point_set(n, seed=seed)
        for n in range(4, 11)
        for seed in (300 + n, 400 + n)
    },
    "wheel": wheel_point_set,
    "long_delaunay": long_delaunay_point_set,
    **{f"circle{n}": lambda n=n: jittered_circle_points(n) for n in (5, 7, 9)},
}


class TestTriangulationTable:
    @pytest.mark.parametrize("name", sorted(ORACLE_SETS))
    def test_enumeration_matches_frozenset_walk(self, name):
        ps = ORACLE_SETS[name]()
        ours = list(enumerate_triangulations(ps))
        assert [t.triangles for t in ours] == [
            t.triangles for t in enumerate_by_frozenset_walk(ps)
        ]

    def test_enumeration_matches_frozenset_walk_n12(self):
        ps = random_point_set(12, seed=1201)
        table = triangulation_table(ps)
        expected = enumerate_by_frozenset_walk(ps)
        assert len(table) == len(expected)
        for row, t in zip(table.rows.tolist(), expected):
            assert tuple(table.triangles[i] for i in row) == t.triangles

    @pytest.mark.parametrize(
        "make", [lambda: random_point_set(8, seed=808), wheel_point_set], ids=["random8", "wheel"]
    )
    def test_columns_match_per_triangulation_queries(self, make):
        ps = make()
        table = triangulation_table(ps)
        for row in range(len(table)):
            t = table.triangulation(row)
            assert table.max_degree[row] == max_degree(t)
            assert [table.edge_pairs[e] for e in table.edges[row].tolist()] == list(t.edges())
            assert [table.quadrilateral(c) for c in table.quads[row].tolist()] == [
                (q.u, q.v, q.p, q.q) for q in interior_quadrilaterals(t)
            ]

    @pytest.mark.parametrize("kind", list(Decomposition), ids=lambda k: k.value)
    def test_element_ids_decode_to_elements(self, kind):
        ps = random_point_set(8, seed=809)
        table = triangulation_table(ps)
        ids, element = table.element_ids(kind)
        assert ids.shape[0] == len(table)
        for row in range(len(table)):
            decoded = tuple(element(i) for i in ids[row].tolist())
            assert decoded == elements(table.triangulation(row), kind)

    def test_three_points(self):
        ps = PointSet([(0, 0), (2, 0), (1, 2)])
        table = triangulation_table(ps)
        assert len(table) == 1
        assert table.triangulation(0).triangles == ((0, 1, 2),)
        assert table.quads.shape == (1, 0)

    def test_cap_checked_before_validation(self):
        ps = PointSet([(0, 0), (1, 0), (2, 0), (0, 1)])  # collinear triple
        with pytest.raises(EnumerationTooLarge):
            triangulation_table(ps, cap=3)


BITMASK_ORACLE_SETS = {
    **{f"random{n}": lambda n=n: random_point_set(n, seed=1100 + n) for n in range(3, 13)},
    "random12-1201": lambda: random_point_set(12, seed=1201),
    "wheel": wheel_point_set,
    "long_delaunay": long_delaunay_point_set,
    # orientation products overflow to inf, some dets to inf - inf = NaN
    "overflow8": lambda: similarity_transform(random_point_set(8, seed=1108), scale=1e200),
    **{
        f"jittered{n}": lambda n=n, jitter=jitter: PointSet(
            random_jittered_circle(random.Random(1300 + n), n, jitter)
        )
        for n, jitter in ((8, 1e-3), (10, 1e-4), (12, 1e-2))
    },
}


def assert_same_table(ours, oracle):
    """Equal ids and every column equal bit for bit, with equal dtypes."""
    assert ours.triangles == oracle.triangles
    assert ours.edge_pairs == oracle.edge_pairs
    for name in ("rows", "edges", "quads", "max_degree"):
        got, want = getattr(ours, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


class TestTableMatchesBitmaskOracle:
    """The canonical construction against the Python-int bitmask walk of the
    flip graph, column by column."""

    @pytest.mark.parametrize("name", sorted(BITMASK_ORACLE_SETS))
    def test_columns_equal(self, name):
        ps = BITMASK_ORACLE_SETS[name]()
        assert_same_table(triangulation_table(ps), bitmask_table(ps))

    def test_two_word_edge_keys(self):
        # 13 points have at least 78 - 13 = 65 non-hull edges: keys of two words
        ps = random_point_set(13, seed=0)
        table = triangulation_table(ps, cap=13)
        assert len(table) == 54791
        assert_same_table(table, bitmask_table(ps, cap=13))

    def test_peak_memory_at_most_the_oracle(self):
        ps = random_point_set(12, seed=1201)
        triangulation_table(ps)  # validation and hull are cached for both builds
        peaks = {}
        for build in (bitmask_table, triangulation_table):
            tracemalloc.start()
            try:
                build(ps)
                peaks[build.__name__] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["triangulation_table"] <= peaks["bitmask_table"], peaks

    def test_build_needs_no_exact_orientation(self, monkeypatch):
        # the signs come from one batched orientations over the ascending
        # triples of distinct points, whose float filter decides each one
        # here; a repeated index is 0 without asking, as the filter cannot
        # decide an exact zero
        ps = random_point_set(12, seed=1203)
        calls = 0
        exact = geom_module._orient_det_exact

        def counted(a, b, c):
            nonlocal calls
            calls += 1
            return exact(a, b, c)

        monkeypatch.setattr(geom_module, "_orient_det_exact", counted)
        table = triangulation_table(ps)
        assert len(table) > 1000
        assert calls == 0


LEVEL_WALK_SETS = {
    **{
        f"random{n}-{seed}": lambda n=n, seed=seed: random_point_set(n, seed=seed)
        for n in range(3, 13)
        for seed in (0, 1, 2)
    },
    **{f"circle{n}": lambda n=n: jittered_circle_points(n) for n in (6, 9, 12)},
    **{
        f"jittered{n}": lambda n=n: PointSet(
            random_jittered_circle(random.Random(1400 + n), n, 1e-3)
        )
        for n in (7, 11)
    },
    "wheel": wheel_point_set,
    "long_delaunay": long_delaunay_point_set,
}


@pytest.mark.parametrize("name", sorted(LEVEL_WALK_SETS))
def test_table_matches_level_walk(name):
    """The canonical construction against the breadth-first numpy flip walk
    it replaced, column by column."""
    ps = LEVEL_WALK_SETS[name]()
    assert_same_table(triangulation_table(ps), level_walk_table(ps))


class TestQuadrilaterals:
    def test_p4_single_quad(self, p4):
        quads = interior_quadrilaterals(Triangulation(p4, [(0, 1, 2), (0, 1, 3)]))
        assert len(quads) == 1
        q = quads[0]
        assert (q.u, q.v) == (0, 1)
        assert {q.p, q.q} == {2, 3}

    def test_single_triangle_no_quads(self):
        ps = PointSet([(0, 0), (2, 0), (1, 2)])
        assert interior_quadrilaterals(Triangulation(ps, [(0, 1, 2)])) == []

    def test_euler_count(self):
        ps = random_point_set(10, seed=2)
        t = delaunay(ps)
        h = len(ps.hull())
        assert len(t.edges()) == 3 * 10 - h - 3
        assert len(interior_quadrilaterals(t)) == len(t.edges()) - h

    def test_same_side_rejected(self, p4):
        with pytest.raises(ValueError):
            Quadrilateral(p4, 0, 3, 1, 2)  # 1 and 2 both left of 0->3? both sides same


class TestLengthDegree:
    def test_uv_diagonal_length(self, p4):
        t = Triangulation(p4, [(0, 1, 2), (0, 1, 3)])
        assert total_edge_length(t) == pytest.approx(4 * math.sqrt(1.25) + 2)

    def test_pq_diagonal_length(self, p4):
        assert total_edge_length(delaunay(p4)) == pytest.approx(4 * math.sqrt(1.25) + 1)

    def test_scaling_doubles_length(self, p4):
        from neardelaunay.geom import similarity_transform

        doubled = similarity_transform(p4, scale=2.0)
        t1 = Triangulation(p4, [(0, 1, 2), (0, 1, 3)])
        t2 = Triangulation(doubled, [(0, 1, 2), (0, 1, 3)])
        assert total_edge_length(t2) == pytest.approx(2 * total_edge_length(t1))

    def test_max_degree_p4(self, p4):
        assert max_degree(Triangulation(p4, [(0, 1, 2), (0, 1, 3)])) == 3

    def test_max_degree_triangle(self):
        ps = PointSet([(0, 0), (2, 0), (1, 2)])
        assert max_degree(Triangulation(ps, [(0, 1, 2)])) == 2

    def test_wheel_hub_degree(self):
        w = wheel_point_set(9)
        assert max_degree(delaunay(w)) == 9


class TestConstraints:
    def test_min_length_pass_and_fail(self, p4):
        t = Triangulation(p4, [(0, 1, 2), (0, 1, 3)])
        dt_len = total_edge_length(delaunay(p4))
        assert satisfies(t, MinTotalLength(1.1), dt_len)
        assert not satisfies(t, MinTotalLength(1.2), dt_len)

    def test_empty_required_edges(self, p4):
        t = delaunay(p4)
        assert satisfies(t, RequiredEdges([]), total_edge_length(t))

    def test_required_edges_present_and_absent(self, p4):
        t = Triangulation(p4, [(0, 1, 2), (0, 1, 3)])
        assert satisfies(t, RequiredEdges([(0, 1)]), 1.0)
        assert not satisfies(t, RequiredEdges([(2, 3)]), 1.0)

    def test_max_length(self, p4):
        t = delaunay(p4)
        assert satisfies(t, MaxTotalLength(1.0), total_edge_length(t))
        assert not satisfies(t, MaxTotalLength(0.8), total_edge_length(t))

    def test_max_degree_constraint(self, p4):
        t = Triangulation(p4, [(0, 1, 2), (0, 1, 3)])
        assert satisfies(t, MaxDegree(3), 1.0)
        assert not satisfies(
            Triangulation(p4, [(0, 2, 3), (1, 2, 3)]), MaxDegree(3), 1.0
        ) or max_degree(delaunay(p4)) <= 3

    def test_required_edges_are_index_pairs(self):
        assert RequiredEdges([(1, 0), (0, 1)]).edges == {(0, 1)}
        for edge in [(0, True), (0, 1.5), ("0", 1), (0, 1, 2), 5]:
            with pytest.raises(InvalidConstraintEdges, match="bad edge"):
                RequiredEdges([edge])

    def test_constraint_parameter_validation(self):
        with pytest.raises(ValueError):
            MinTotalLength(0.0)
        with pytest.raises(ValueError):
            MaxDegree(2)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: MinTotalLength(-1.0), "length factor must be positive"),
            (lambda: MaxTotalLength(float("nan")), "length factor must be positive"),
            (lambda: MaxDegree(2), "degree bound must be at least 3"),
        ],
        ids=["min_length", "max_length_nan", "max_degree"],
    )
    def test_constraint_errors_are_package_errors(self, build, message):
        with pytest.raises(NearDelaunayError, match=message):
            build()


FEASIBLE_SETS = {
    "wheel": wheel_point_set,
    "long_delaunay": long_delaunay_point_set,
    **{f"random{n}": lambda n=n: random_point_set(n, seed=1500 + n) for n in range(8, 13)},
}


def _factor_for(bound: float, dt_length: float) -> float | None:
    """A length factor f with f * dt_length == bound exactly, if one lies
    within a few ulps of bound / dt_length."""
    f = bound / dt_length
    for _ in range(4):
        f = math.nextafter(f, -math.inf)
    for _ in range(9):
        if f * dt_length == bound:
            return f
        f = math.nextafter(f, math.inf)
    return None


class TestFeasibleRows:
    """feasible_rows against satisfies on every row.  Length bounds equal to
    a row's exact length, and to its neighbouring doubles, fall inside the
    screen's error band, where only total_edge_length can decide."""

    @pytest.fixture(scope="class", params=sorted(FEASIBLE_SETS))
    def case(self, request):
        ps = FEASIBLE_SETS[request.param]()
        table = triangulation_table(ps)
        tris = [table.triangulation(row) for row in range(len(table))]
        return table, tris, total_edge_length(delaunay(ps))

    @staticmethod
    def check(table, tris, c, dt_length):
        got = feasible_rows(table, c, dt_length)
        assert got.dtype == bool and got.shape == (len(table),)
        assert got.tolist() == [satisfies(t, c, dt_length) for t in tris]

    def test_length_bounds_at_row_lengths(self, case, monkeypatch):
        table, tris, dt_length = case
        lengths = sorted({total_edge_length(t) for t in tris})
        targets = [*lengths[:: max(1, len(lengths) // 8)], lengths[-1], dt_length]
        exact = triangulation_module.total_edge_length
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return exact(t)

        bounds = 0
        for target in targets:
            below, above = math.nextafter(target, -math.inf), math.nextafter(target, math.inf)
            for bound in (below, target, above):
                factor = _factor_for(bound, dt_length)
                if factor is None:
                    continue
                bounds += 1
                for constraint in (MinTotalLength(factor), MaxTotalLength(factor)):
                    with monkeypatch.context() as m:
                        m.setattr(triangulation_module, "total_edge_length", counted)
                        feasible_rows(table, constraint, dt_length)
                    self.check(table, tris, constraint, dt_length)
        assert bounds >= len(targets)
        assert calls > 0  # the band path ran

    def test_length_bounds_between_rows(self, case):
        table, tris, dt_length = case
        for factor in (0.5, 0.9, 1.0, 1.05, 1.1, 1.2, 1.5, 3.0):
            for constraint in (MinTotalLength(factor), MaxTotalLength(factor)):
                self.check(table, tris, constraint, dt_length)

    def test_required_edges(self, case):
        table, tris, dt_length = case
        n = len(table.point_set)
        pairs = list(itertools.combinations(range(n), 2))
        for edge in pairs[:: max(1, len(pairs) // 16)]:
            self.check(table, tris, RequiredEdges([edge]), dt_length)
        self.check(table, tris, RequiredEdges([]), dt_length)
        self.check(table, tris, RequiredEdges(delaunay(table.point_set).edges()[:2]), dt_length)
        self.check(table, tris, RequiredEdges([(0, n)]), dt_length)  # no such edge

    def test_max_degree(self, case):
        table, tris, dt_length = case
        for bound in range(3, len(table.point_set) + 1):
            self.check(table, tris, MaxDegree(bound), dt_length)


class TestEdgeDiff:
    def test_self_diff_empty(self, p4):
        t = delaunay(p4)
        assert edge_diff(t, t) == set()

    def test_diagonal_swap(self, p4):
        t_uv = Triangulation(p4, [(0, 1, 2), (0, 1, 3)])
        t_pq = Triangulation(p4, [(0, 2, 3), (1, 2, 3)])
        assert edge_diff(t_uv, t_pq) == {(0, 1)}
        assert edge_diff(t_pq, t_uv) == {(2, 3)}

    def test_symmetric_count(self):
        ps = random_point_set(8, seed=3)
        ts = list(enumerate_triangulations(ps))
        a, b = ts[0], ts[len(ts) // 2]
        assert len(edge_diff(a, b)) == len(edge_diff(b, a))

    def test_mismatched_point_sets(self, p4):
        other = PointSet([(0, 0), (3, 0), (1, 1), (1, -1)])
        with pytest.raises(MismatchedPointSets):
            edge_diff(delaunay(p4), delaunay(other))


class TestFileFormat:
    def test_point_round_trip(self, p4):
        assert parse_points(write_points(p4)).points == p4.points

    def test_triangulation_round_trip(self):
        ps = random_point_set(9, seed=77)
        # jitter through 12-significant-digit formatting first
        ps = parse_points(write_points(ps))
        t = delaunay(ps)
        text = write_triangulation(t)
        again = parse_triangulation(text)
        assert write_triangulation(again) == text
        assert again.triangles == t.triangles

    def test_parse_p4(self):
        ps = parse_points("4\n0 0\n2 0\n1 0.5\n1 -0.5")
        assert ps.points[3] == (1.0, -0.5)

    def test_collinear_file_rejected(self):
        from neardelaunay.errors import GeneralPositionViolated

        with pytest.raises(GeneralPositionViolated):
            parse_points("3\n0 0\n1 1\n2 2")

    def test_too_few_points_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_points("2\n0 0\n1 0")

    def test_bad_count_line(self):
        with pytest.raises(ParseError):
            parse_points("x\n0 0")

    def test_truncated_file(self):
        with pytest.raises(ParseError):
            parse_points("4\n0 0\n1 0")

    def test_mismatched_external_points_rejected(self, p4):
        text = write_triangulation(delaunay(p4))
        other = PointSet([(0, 0), (3, 0), (1, 1), (1, -1)])
        with pytest.raises(ParseError, match="do not match"):
            parse_triangulation(text, other)

    def test_matching_external_points_accepted(self, p4):
        text = write_triangulation(delaunay(p4))
        again = parse_triangulation(text, p4)
        assert again.point_set is p4
