import importlib
import math
import random
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial import Delaunay as ScipyDelaunay

from neardelaunay.delaunay import _proper_cross, cdt, delaunay, voronoi
from neardelaunay.errors import GeneralPositionViolated, InvalidConstraintEdges
from neardelaunay.geom import (
    PointSet,
    circumcircle,
    in_circumcircle,
    separates,
    similarity_transform,
)
from neardelaunay.pointgen import (
    long_delaunay_point_set,
    random_point_set,
    wheel_point_set,
)
from neardelaunay.triangulation import (
    Triangulation,
    enumerate_triangulations,
    flip_edge,
    interior_quadrilaterals,
    triangulation_table,
    validate,
)

from conftest import random_jittered_circle, validated_edge_sets
from oracles import frozenset_cdt, frozenset_delaunay


def all_quads_locally_delaunay(t: Triangulation, skip_edges=frozenset()) -> bool:
    for q in interior_quadrilaterals(t):
        if (q.u, q.v) in skip_edges:
            continue
        pu, pv, pp, pq = q.coords()
        if in_circumcircle(pu, pv, pp, pq):
            return False
    return True


class TestDelaunay:
    def test_three_points(self):
        ps = PointSet([(0, 0), (2, 0), (1, 2)])
        assert delaunay(ps).triangles == ((0, 1, 2),)

    def test_p4_picks_short_diagonal(self, p4):
        assert delaunay(p4).triangles == ((0, 2, 3), (1, 2, 3))

    def test_every_quadrilateral_locally_delaunay(self):
        for seed in range(10):
            ps = random_point_set(12, seed=seed)
            t = delaunay(ps)
            assert validate(t)
            assert all_quads_locally_delaunay(t)

    def test_every_circumcircle_empty(self):
        ps = random_point_set(10, seed=100)
        t = delaunay(ps)
        for tri in t.triangles:
            pts = [ps[i] for i in tri]
            circ = circumcircle(*pts)
            for i, p in enumerate(ps):
                if i in tri:
                    continue
                assert math.dist(circ.center, p) > circ.radius

    def test_matches_scipy(self):
        for seed in range(20):
            ps = random_point_set(15, seed=seed)
            ours = set(delaunay(ps).triangles)
            qhull = ScipyDelaunay([(p.x, p.y) for p in ps])
            theirs = {tuple(sorted(int(i) for i in s)) for s in qhull.simplices}
            assert ours == theirs

    def test_combinatorics_invariant_under_similarity(self):
        rng = random.Random(4)
        ps = random_point_set(10, seed=55)
        base = delaunay(ps).triangles
        for _ in range(5):
            moved = similarity_transform(
                ps,
                rotation=rng.uniform(0, 2 * math.pi),
                scale=rng.uniform(0.2, 5.0),
                translation=(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                reflect=rng.random() < 0.5,
            )
            assert delaunay(moved).triangles == base

    def test_built_once_per_point_set(self):
        ps = random_point_set(12, seed=42)
        dt = delaunay(ps)
        assert delaunay(ps) is dt
        assert voronoi(ps).delaunay is dt

    def test_degenerate_input_rejected(self):
        ps = PointSet([(0, 0), (1, 1), (2, 2), (0, 3)])
        with pytest.raises(GeneralPositionViolated):
            delaunay(ps)


class TestVoronoi:
    def test_three_points(self):
        ps = PointSet([(0, 0), (2, 0), (1, 2)])
        vd = voronoi(ps)
        assert len(vd.vertices) == 1
        circ = circumcircle(*ps.points)
        assert vd.vertices[0].point == pytest.approx(circ.center)
        assert len(vd.edges) == 3
        assert all(e.end is None for e in vd.edges)

    def test_p4_dual(self, p4):
        vd = voronoi(p4)
        centers = sorted((round(v.point.x, 9), round(v.point.y, 9)) for v in vd.vertices)
        assert centers == [(0.625, 0.0), (1.375, 0.0)]
        bounded = [e for e in vd.edges if e.end is not None]
        assert len(bounded) == 1
        assert bounded[0].sites == (2, 3)

    def test_vertex_count_equals_triangle_count(self):
        ps = random_point_set(11, seed=8)
        vd = voronoi(ps)
        assert len(vd.vertices) == len(delaunay(ps).triangles)

    def test_maximal_circles_empty(self):
        ps = random_point_set(10, seed=9)
        vd = voronoi(ps)
        for vert in vd.vertices:
            for i, p in enumerate(ps):
                if i in vert.sites:
                    assert math.dist(vert.point, p) == pytest.approx(
                        vert.radius, rel=1e-9
                    )
                else:
                    assert math.dist(vert.point, p) > vert.radius

    def test_bounded_edge_endpoints_are_adjacent_circumcenters(self):
        ps = random_point_set(9, seed=10)
        vd = voronoi(ps)
        dt = vd.delaunay
        for e in vd.edges:
            owners = {tuple(sorted((*e.sites, w))) for w in dt.apexes()[e.sites]}
            if e.end is None:
                assert len(owners) == 1
            else:
                got = {vd.vertices[e.start].sites, vd.vertices[e.end].sites}
                assert got == owners

    def test_cells_list_incident_edges(self):
        ps = random_point_set(9, seed=13)
        vd = voronoi(ps)
        for site, edge_ids in vd.cells.items():
            assert all(site in vd.edges[k].sites for k in edge_ids)
        for k, e in enumerate(vd.edges):
            for site in e.sites:
                assert k in vd.cells[site]

    def test_unbounded_directions_point_outward(self):
        ps = random_point_set(8, seed=12)
        vd = voronoi(ps)
        cx = sum(p.x for p in ps) / len(ps)
        cy = sum(p.y for p in ps) / len(ps)
        for e in vd.edges:
            if e.end is not None:
                continue
            start = vd.vertices[e.start].point
            far = (start.x + 100 * e.direction[0], start.y + 100 * e.direction[1])
            assert math.hypot(far[0] - cx, far[1] - cy) > math.hypot(
                start.x - cx, start.y - cy
            )


class TestCdt:
    def test_empty_constraints_is_delaunay(self):
        ps = random_point_set(10, seed=20)
        assert cdt(ps, []).triangles == delaunay(ps).triangles

    def test_delaunay_edges_as_constraints(self):
        ps = random_point_set(10, seed=21)
        dt = delaunay(ps)
        some = list(dt.edges())[:4]
        assert cdt(ps, some).triangles == dt.triangles

    def test_p4_forced_diagonal(self, p4):
        assert cdt(p4, [(0, 1)]).triangles == ((0, 1, 2), (0, 1, 3))

    def test_crossing_constraints_rejected(self, p4):
        with pytest.raises(InvalidConstraintEdges):
            cdt(p4, [(0, 1), (2, 3)])

    def test_bad_indices_rejected(self, p4):
        # out of range, not an integer, or not a pair: (0, True) is not edge (0, 1)
        for edge in [(0, 9), (0, 1.5), (0, True), (True, 0), ("0", 1), (0, None), (0, 1, 2), 5]:
            with pytest.raises(InvalidConstraintEdges, match="bad edge"):
                cdt(p4, [edge])

    def test_matches_enumeration_oracle(self):
        # the CDT is the unique triangulation containing the required edge
        # whose every free quadrilateral is locally Delaunay
        for seed in (30, 31, 32):
            ps = random_point_set(10, seed=seed)
            dt = delaunay(ps)
            required = next(
                (i, j)
                for i in range(10)
                for j in range(i + 1, 10)
                if not dt.has_edge(i, j)
            )
            result = cdt(ps, [required])
            assert result.has_edge(*required)
            assert validate(result)
            matches = [
                t.triangles
                for t in enumerate_triangulations(ps)
                if t.has_edge(*required)
                and all_quads_locally_delaunay(t, skip_edges={required})
            ]
            assert matches == [result.triangles]

    def test_multiple_constraints(self):
        ps = random_point_set(10, seed=40)
        dt = delaunay(ps)
        non_dt = [
            (i, j)
            for i in range(10)
            for j in range(i + 1, 10)
            if not dt.has_edge(i, j)
        ]
        from neardelaunay.delaunay import _proper_cross

        chosen = []
        for e in non_dt:
            if all(
                not _proper_cross(ps[e[0]], ps[e[1]], ps[f[0]], ps[f[1]])
                for f in chosen
            ):
                chosen.append(e)
            if len(chosen) == 2:
                break
        result = cdt(ps, chosen)
        assert validate(result)
        for e in chosen:
            assert result.has_edge(*e)
        assert all_quads_locally_delaunay(result, skip_edges=set(chosen))
        # uniqueness: no other triangulation with these edges is free-edge
        # locally Delaunay everywhere
        matches = [
            t.triangles
            for t in enumerate_triangulations(ps)
            if all(t.has_edge(*e) for e in chosen)
            and all_quads_locally_delaunay(t, skip_edges=set(chosen))
        ]
        assert matches == [result.triangles]


def _outcome(build, *args):
    """The triangles a construction returns, or its exception type and message."""
    try:
        return build(*args).triangles
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def sweep_sets():
    rng = random.Random(90)
    sets = [random_point_set(n, seed=900 + n) for n in range(4, 81)]
    sets += [wheel_point_set(), wheel_point_set(14), long_delaunay_point_set()]
    for n, jitter in ((8, 1e-3), (12, 1e-4), (20, 1e-2), (30, 1e-3)):
        sets.append(PointSet(random_jittered_circle(rng, n, jitter)))
    return sets


class TestLegalizeFlips:
    """An edge whose apex is strictly inside its circumcircle has a convex
    quadrilateral, so legalization never meets a blocked flip."""

    def test_in_circle_implies_convex(self):
        illegal = 0
        for ps in validated_edge_sets():
            table = triangulation_table(ps)
            for code in np.unique(table.quads).tolist():
                u, v, p, q = (ps[i] for i in table.quadrilateral(code))
                if in_circumcircle(u, v, p, q):
                    assert separates(p, q, u, v)
                    illegal += 1
        assert illegal > 4000

    def test_delaunay_never_meets_a_blocked_flip(self, monkeypatch, sweep_sets):
        flipped = []

        def recorded(*args):
            flipped.append(flip_edge(*args))
            return flipped[-1]

        # the package re-exports the function delaunay under the module's name
        monkeypatch.setattr(importlib.import_module("neardelaunay.delaunay"), "flip_edge", recorded)
        for ps in validated_edge_sets() + sweep_sets:
            delaunay(PointSet(ps.points))  # a new set: delaunay keeps its result on the old
        assert len(flipped) > 1000 and None not in flipped


def _chords(ps, rng, count):
    """Up to count pairwise non-crossing chords.  The first joins the
    leftmost and rightmost points, so it crosses many edges."""
    n = len(ps)
    order = sorted(range(n), key=lambda i: ps[i])
    chosen = [(min(order[0], order[-1]), max(order[0], order[-1]))]
    for _ in range(50 * count):
        if len(chosen) == count:
            break
        i, j = sorted(rng.sample(range(n), 2))
        if (i, j) not in chosen and not any(
            _proper_cross(ps[i], ps[j], ps[k], ps[l]) for k, l in chosen
        ):
            chosen.append((i, j))
    return chosen


class TestFrozensetOracle:
    """Construction on the in-place apex map gives the triangles and errors
    of the frozenset construction in tests/oracles.py."""

    def test_delaunay_matches(self, sweep_sets):
        for ps in sweep_sets:
            assert _outcome(delaunay, ps) == _outcome(frozenset_delaunay, ps)

    def test_cdt_matches(self, sweep_sets):
        rng = random.Random(91)
        most_crossed = 0
        for k, ps in enumerate(sweep_sets):
            edges = _chords(ps, rng, 1 + k % 3)
            assert _outcome(cdt, ps, edges) == _outcome(frozenset_cdt, ps, edges)
            (i, j) = edges[0]
            most_crossed = max(most_crossed, sum(
                _proper_cross(ps[i], ps[j], ps[a], ps[b]) for a, b in delaunay(ps).edges()
            ))
        assert most_crossed >= 10  # the long chords flip many edges away

    def test_errors_match(self):
        for n in (5, 12, 30):
            ps = random_point_set(n, seed=930 + n)
            crossing = next(
                [e, f]
                for e in delaunay(ps).edges()
                for f in combinations(range(n), 2)
                if _proper_cross(ps[e[0]], ps[e[1]], ps[f[0]], ps[f[1]])
            )
            for edges in (crossing, [(0, n)], [(-1, 2)], [(3, 3)], [(0, 1), (2, n + 4)]):
                got = _outcome(cdt, ps, edges)
                assert got[0] is InvalidConstraintEdges
                assert got == _outcome(frozenset_cdt, ps, edges)
