import itertools
import math
import random
import re
import warnings

import numpy as np
import pytest

from neardelaunay import geom, metrics, triangulation
from neardelaunay.delaunay import cdt, delaunay, voronoi
from neardelaunay.errors import (
    GeneralPositionViolated,
    MismatchedPointSets,
    NearDelaunayError,
    SiteOutsideCircle,
)
from neardelaunay.geom import (
    Circle,
    Orientation,
    Point,
    PointSet,
    Segment,
    chord_overlap_length,
    circumcircle,
    in_circumcircle,
    is_general_position,
    orientation,
)
from neardelaunay.metrics import (
    ALL_METRICS,
    EDGE_METRICS,
    METRICS,
    PERFECT_VALUE,
    QUADRILATERAL_METRICS,
    TRIANGLE_METRICS,
    EllipticalSegment,
    Evaluator,
    ScoreOrientation,
    StraightSegment,
    _dist_point_segment,
    evaluate,
    lookup_metric,
)
from neardelaunay.pointgen import long_delaunay_point_set, random_point_set, wheel_point_set
from neardelaunay.triangulation import (
    Decomposition,
    Triangulation,
    elements,
    interior_quadrilaterals,
    triangulation_table,
)

from conftest import (
    PREDICATE_SETS,
    jittered_circle_points,
    random_jittered_circle,
    validated_edge_sets,
)
from divergence import ALL_PAIRS, score_element
from oracles import (
    all_pairs_shrunk_circumcircle,
    bisection_shrunk_circumcircle,
    checked_dual_overlap_area,
    clip_dual_overlap_oracle,
    flip,
    full_search_largest_contained_circle,
    grid_shrunk_circle,
    grid_shrunk_circumcircle,
    lens_arc_oracle,
    full_scan_shrunk_circle,
    local_voronoi,
    local_voronoi_in_index_order,
    per_point_inside_circumcircle,
    sampled_triangular_lens,
    similarity_transform,
    voronoi_vertex_shrunk_circle,
)


def bad_diagonal(p4):
    return Triangulation(p4, [(0, 1, 2), (0, 1, 3)])


def the_quad(t):
    return interior_quadrilaterals(t)[0]


def metric_value(metric, ps, element):
    """One element's value through the metric registry."""
    return Evaluator(ps).element_value(metric, element)


def quad_value(metric, q):
    return metric_value(metric, q.point_set, (q.u, q.v, q.p, q.q))


def flip_neighbors(t):
    tris = frozenset(t.triangles)
    out = []
    for q in interior_quadrilaterals(t):
        flipped = flip(t.point_set, tris, (q.u, q.v))
        if flipped is not None:
            out.append(Triangulation(t.point_set, flipped))
    return out


def imperfection(metric, value):
    if metric in QUADRILATERAL_METRICS:
        return value
    return PERFECT_VALUE[metric] - value


class TestOpposingAngles:
    def test_locally_delaunay_is_zero(self):
        ps = PointSet([(0, 0), (2, 0), (1, 2), (1, -2)])
        assert quad_value("opposing_angles", the_quad(bad_diagonal(ps))) == 0.0

    def test_bad_diagonal(self, p4):
        expected = 2 * math.acos(-3 / 5) - math.pi
        assert quad_value("opposing_angles", the_quad(bad_diagonal(p4))) == pytest.approx(
            expected, abs=1e-12
        )

    def test_continuous_at_cocircular_boundary(self):
        # apex heights straddling the cocircular configuration
        for eps in (1e-6, 1e-9):
            ps = PointSet([(0, 0), (2, 0), (1, 1 - eps), (1, -1)])
            val = quad_value("opposing_angles", the_quad(bad_diagonal(ps)))
            assert 0.0 < val < 4 * eps
            ps2 = PointSet([(0, 0), (2, 0), (1, 1 + eps), (1, -1)])
            assert quad_value("opposing_angles", the_quad(bad_diagonal(ps2))) == 0.0


class TestDualEdgeRatio:
    def test_locally_delaunay_is_zero(self):
        ps = PointSet([(0, 0), (2, 0), (1, 2), (1, -2)])
        assert quad_value("dual_edge_ratio", the_quad(bad_diagonal(ps))) == 0.0

    def test_bad_diagonal(self, p4):
        assert quad_value("dual_edge_ratio", the_quad(bad_diagonal(p4))) == pytest.approx(0.75)

    def test_small_near_cocircular(self):
        ps = PointSet([(0, 0), (2, 0), (1, 1 - 1e-7), (1, -1)])
        assert quad_value("dual_edge_ratio", the_quad(bad_diagonal(ps))) < 1e-6


class TestDualAreaOverlap:
    def test_locally_delaunay_is_zero(self):
        ps = PointSet([(0, 0), (2, 0), (1, 2), (1, -2)])
        assert quad_value("dual_area_overlap", the_quad(bad_diagonal(ps))) == 0.0

    def test_bad_diagonal(self, p4):
        assert quad_value("dual_area_overlap", the_quad(bad_diagonal(p4))) == pytest.approx(
            0.140625, rel=1e-9
        )

    def test_matches_clipping_oracle(self):
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            pts = [
                (0.0, 0.0),
                (rng.uniform(1.0, 3.0), 0.0),
                (rng.uniform(-0.5, 2.5), rng.uniform(0.05, 1.5)),
                (rng.uniform(-0.5, 2.5), -rng.uniform(0.05, 1.5)),
            ]
            try:
                ps = PointSet(pts)
                q = the_quad(bad_diagonal(ps))
            except ValueError:
                continue
            ours = quad_value("dual_area_overlap", q)
            ref = clip_dual_overlap_oracle(*q.coords())
            if ours == 0.0:
                assert ref == 0.0
            else:
                assert ours == pytest.approx(ref, rel=1e-9)
            checked += 1


class TestCircumcentreQuadrilateral:
    """The overlap of an illegal edge's two cells is the quadrilateral of its
    four circumcentres, and shrunk_circle's circles are the Delaunay
    circumcircles: both ``==`` the code they replaced, on validated sets."""

    def test_every_in_circle_quadrilateral_matches_the_checked_area(self):
        # the checked area took the quadrilateral only after testing its
        # turns and its four halfplanes, and clipped a box otherwise
        checked = 0
        for ps in validated_edge_sets():
            table = triangulation_table(ps)
            for code in np.unique(table.quads).tolist():
                quad = [ps[i] for i in table.quadrilateral(code)]
                if in_circumcircle(*quad):
                    area, fell_back = checked_dual_overlap_area(*quad)
                    assert (metrics._dual_overlap_area(*quad), fell_back) == (area, False)
                    checked += 1
        assert checked > 4000

    @pytest.mark.parametrize("n", [40, 80])
    def test_shrunk_circle_matches_the_voronoi_vertex_scan(self, n):
        rng = random.Random(f"shrunk-circle/{n}")
        base = [(rng.random(), rng.random()) for _ in range(n)]
        required = _crossing_chords(base)
        scaled = [[(math.ldexp(x, e), math.ldexp(y, e)) for x, y in base] for e in (-40, 40)]
        for pts in [base, [(x + 1e7, y - 1e7) for x, y in base], *scaled]:
            ps = PointSet(pts)
            ev, vd = Evaluator(ps), voronoi(ps)
            for t in (delaunay(ps), cdt(ps, required)):
                for e in t.edges():
                    assert ev.element_value("shrunk_circle", e) == voronoi_vertex_shrunk_circle(vd, e)


class TestShrunkCircleScan:
    """shrunk_circle, which scans the circles of the edge's own Delaunay
    triangles first and stops at full cover, ``==`` the full scan of every
    Delaunay circumcircle, both orders of every edge, with no warning."""

    @staticmethod
    def assert_same_values(ps, edges):
        ev = Evaluator(ps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in edges:
                for edge in (e, e[::-1]):
                    assert ev.element_value("shrunk_circle", edge) == full_scan_shrunk_circle(ps, edge), edge

    def test_validated_edge_sets(self):
        for ps in validated_edge_sets():
            self.assert_same_values(ps, list(itertools.combinations(range(len(ps)), 2)))

    @pytest.mark.parametrize("n", [10, 20, 40, 80])
    def test_complexity_families(self, n):
        # the fan and Delaunay triangulations that criterion 10 times
        ps = jittered_circle_points(n)
        fan = Triangulation(ps, [(0, i, i + 1) for i in range(1, n - 1)])
        self.assert_same_values(ps, sorted(set(fan.edges()) | set(delaunay(ps).edges())))

    @pytest.mark.parametrize("family", PREDICATE_SETS)
    def test_predicate_sets(self, family):
        ps = PointSet(PREDICATE_SETS[family]())
        pairs = list(itertools.combinations(range(len(ps)), 2))
        if is_general_position(ps):
            self.assert_same_values(ps, pairs)
        else:  # no Delaunay circles: both raise
            with pytest.raises(GeneralPositionViolated):
                full_scan_shrunk_circle(ps, pairs[0])
            with pytest.raises(GeneralPositionViolated):
                metric_value("shrunk_circle", ps, pairs[0])

    def test_stops_at_full_cover(self, monkeypatch):
        ps = jittered_circle_points(40)
        dt = delaunay(ps)
        calls = 0
        real = metrics.chord_overlap_length

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(metrics, "chord_overlap_length", counted)
        values = Evaluator(ps).values(dt, "shrunk_circle")
        covered = values.count(1.0)
        assert covered > len(values) / 2
        # a covered edge stops within its own two circles, the rest scan all
        assert calls <= 2 * covered + (len(values) - covered) * (2 + len(dt.triangles))


class TestSharedQuadrilaterals:
    """elements() builds a triangulation's (u, v, p, q) tuples once."""

    def test_repeat_calls_return_the_same_tuples(self):
        t = delaunay(random_point_set(12, seed=31))
        first = elements(t, Decomposition.QUADRILATERAL)
        assert first and elements(t, Decomposition.QUADRILATERAL) is first
        assert first == tuple((q.u, q.v, q.p, q.q) for q in interior_quadrilaterals(t))

    def test_built_once_through_interior_quadrilaterals(self, monkeypatch):
        # through the module binding, so a span around it sees the work
        calls = []

        def counted(t):
            calls.append(t)
            return interior_quadrilaterals(t)

        monkeypatch.setattr(triangulation, "interior_quadrilaterals", counted)
        t = delaunay(random_point_set(12, seed=33))
        ev = Evaluator(t.point_set)
        for metric in QUADRILATERAL_METRICS:
            ev.scores(t, metric)
        assert calls == [t]

    def test_quadrilateral_metrics_share_their_elements(self):
        t = delaunay(random_point_set(12, seed=32))
        ev = Evaluator(t.point_set)
        scores = [ev.scores(t, metric) for metric in QUADRILATERAL_METRICS]
        assert len({len(s) for s in scores}) == 1 and scores[0]
        for same in zip(*scores):
            assert all(s.element is same[0].element for s in same)

    def test_a_failed_check_caches_nothing(self):
        # both apexes of interior edge (0, 1) lie above it, every call
        ps = PointSet([(0, 0), (2, 0), (1, 0.5), (1, 1.7)])
        t = Triangulation(ps, [(0, 1, 2), (0, 1, 3)])
        for _ in range(2):
            with pytest.raises(ValueError, match="opposite sides"):
                elements(t, Decomposition.QUADRILATERAL)
            with pytest.raises(ValueError, match="opposite sides"):
                evaluate(t, "opposing_angles")


class TestLens:
    def test_worked_example(self, p4):
        expected = 2 * math.pi - 2 * math.acos(-3 / 5)
        assert metric_value("lens", p4, (0, 1)) == pytest.approx(expected, abs=1e-12)

    def test_delaunay_edges_capped_at_pi(self, p4):
        dt = delaunay(p4)
        for e in dt.edges():
            assert metric_value("lens", p4, e) == math.pi

    def test_hull_edge_with_empty_side(self):
        ps = PointSet([(0, 0), (2, 0), (1, 2)])
        assert metric_value("lens", ps, (0, 1)) == math.pi

    def test_matches_arc_oracle(self):
        for seed in range(8):
            ps = random_point_set(9, seed=seed)
            for t in [delaunay(ps)] + flip_neighbors(delaunay(ps))[:3]:
                for e in t.edges():
                    assert metric_value("lens", ps, e) == pytest.approx(
                        lens_arc_oracle(ps, *e), abs=1e-9
                    )


class TestShrunkCircle:
    def test_worked_example(self, p4):
        assert metric_value("shrunk_circle", p4, (0, 1)) == pytest.approx(0.625)

    def test_delaunay_edges_are_one(self, p4):
        for e in delaunay(p4).edges():
            assert metric_value("shrunk_circle", p4, e) == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_oracle(self, p4):
        assert metric_value("shrunk_circle", p4, (0, 1)) == pytest.approx(
            grid_shrunk_circle(p4, 0, 1), abs=2e-3
        )
        for seed in (2, 3):
            ps = random_point_set(8, seed=seed)
            t = flip_neighbors(delaunay(ps))[0]
            for e in list(t.edges())[:6]:
                assert metric_value("shrunk_circle", ps, e) == pytest.approx(
                    grid_shrunk_circle(ps, *e), abs=2e-3
                )

    def test_overlap_max_attained_at_voronoi_vertices(self):
        # What the vertex-testing algorithm rests on: along each bounded
        # Voronoi edge the covered length is quasiconvex (the square root of
        # a convex quadratic, clipped at zero, with transitions only at zero
        # coverage), so no interior sample may beat both endpoints.
        for seed in (5, 6, 7):
            ps = random_point_set(8, seed=seed)
            vd = voronoi(ps)
            pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
            for e in vd.edges:
                if e.end is None:
                    continue
                a = vd.vertices[e.start].point
                b = vd.vertices[e.end].point
                si = e.sites[0]
                for u, v in pairs:
                    seg = Segment(ps[u], ps[v])
                    scale = math.dist(ps[u], ps[v])
                    vals = []
                    for k in range(101):
                        t = k / 100
                        c = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                        vals.append(
                            chord_overlap_length(Circle(c, math.dist(c, ps[si])), seg)
                        )
                    assert max(vals) <= max(vals[0], vals[-1]) + 1e-9 * scale

    def test_overlap_convex_when_segment_line_separates_sites(self, p4):
        # In the regime where every maximal circle along the Voronoi edge
        # meets the segment's carrier line (here: the line crosses between
        # the two defining sites), the covered length is genuinely convex.
        vd = voronoi(p4)
        e = next(e for e in vd.edges if e.end is not None)
        assert e.sites == (2, 3)
        a = vd.vertices[e.start].point
        b = vd.vertices[e.end].point
        seg = Segment(p4[0], p4[1])
        vals = []
        for k in range(101):
            t = k / 100
            c = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            vals.append(chord_overlap_length(Circle(c, math.dist(c, p4[2])), seg))
        for x, y, z in zip(vals, vals[1:], vals[2:]):
            assert z - 2 * y + x >= -1e-9 * 2.0


class TestTriangularLens:
    def test_worked_example(self, p4):
        value = metric_value("triangular_lens", p4, (0, 1, 2))
        assert value == pytest.approx(0.20364, abs=1e-5)

    def test_delaunay_triangles_are_one(self, p4):
        for tri in delaunay(p4).triangles:
            assert metric_value("triangular_lens", p4, tri) == pytest.approx(1.0, abs=1e-12)

    def test_matches_area_sampling_oracle(self, p4):
        ours = metric_value("triangular_lens", p4, (0, 1, 2))
        assert ours == pytest.approx(sampled_triangular_lens(p4, (0, 1, 2)), abs=3e-3)
        ps = random_point_set(8, seed=44)
        t = flip_neighbors(delaunay(ps))[0]
        for tri in t.triangles[:4]:
            assert metric_value("triangular_lens", ps, tri) == pytest.approx(
                sampled_triangular_lens(ps, tri), abs=3e-3
            )

    def test_blockers_near_midpoints_drive_score_down(self):
        # points converging onto all three edge midpoints push the score to 0
        tri = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)]
        values = []
        for d in (0.5, 0.1, 0.02):
            mids = []
            cx, cy = 2.0, 1.0
            for k in range(3):
                a, b = tri[k], tri[(k + 1) % 3]
                mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
                nx, ny = mx - cx, my - cy
                norm = math.hypot(nx, ny)
                mids.append((mx + d * nx / norm, my + d * ny / norm))
            ps = PointSet(tri + mids)
            values.append(metric_value("triangular_lens", ps, (0, 1, 2)))
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.05


def _crossing_chords(pts):
    """Three chords between the points nearest to (0.15, y) and (0.85, y)."""

    def nearest(q):
        return min(range(len(pts)), key=lambda i: math.dist(pts[i], q))

    return [tuple(sorted((nearest((0.15, y)), nearest((0.85, y))))) for y in (0.25, 0.5, 0.75)]


class TestLocalVoronoiNearestFirst:
    """Nearest-first clipping gives exactly the diagram, and the
    shrunk_circumcircle values, of clipping every site in index order: by
    every other site in public local_voronoi, and by Delaunay neighbours in
    the metric on validated sets."""

    @staticmethod
    def _check(monkeypatch, ps, triangles):
        """Compare every occupied circumcircle; return their number, the
        largest number of sites inside one, and whether the set passed
        validation, which makes the metric clip by Delaunay neighbours."""
        validated = is_general_position(ps)
        pts = ps.points
        occupied, expected, k_max = [], [], 0
        for tri in triangles:
            corners = [pts[i] for i in tri]
            sites = [p for i, p in enumerate(pts) if i not in tri and in_circumcircle(*corners, p)]
            if sites:
                circ = circumcircle(*corners)
                expected.append(local_voronoi_in_index_order(circ, sites))
                assert local_voronoi(circ, sites) == expected[-1]
                occupied.append(tri)
                k_max = max(k_max, len(sites))
        clip, built = metrics._local_voronoi, []

        def recording(c, sites, neighbours):
            built.append(clip(c, sites, neighbours))
            return built[-1]

        with monkeypatch.context() as m:
            m.setattr(metrics, "_local_voronoi", recording)
            ev = Evaluator(ps)
            values = [ev.element_value("shrunk_circumcircle", tri) for tri in occupied]
        assert built == expected
        assert values == [all_pairs_shrunk_circumcircle(ps, tri) for tri in occupied]
        return len(occupied), k_max, validated

    def test_cdt_with_crossing_chords(self, monkeypatch):
        k_max = 0
        for n in (40, 60, 80):
            rng = random.Random(f"lv-cdt/{n}")
            pts = [(rng.random(), rng.random()) for _ in range(n)]
            ps = PointSet(pts)
            count, k, validated = self._check(
                monkeypatch, ps, cdt(ps, _crossing_chords(pts)).triangles
            )
            assert count > 0 and validated
            k_max = max(k_max, k)
        assert k_max >= 40

    def test_cdt_of_more_random_sets(self, monkeypatch):
        for n in (30, 50, 70):
            rng = random.Random(f"lv-cdt-more/{n}")
            for _ in range(5):
                pts = [(rng.random(), rng.random()) for _ in range(n)]
                ps = PointSet(pts)
                count, _, validated = self._check(
                    monkeypatch, ps, cdt(ps, _crossing_chords(pts)).triangles
                )
                assert count > 0 and validated

    def test_every_triangle_of_random_sets(self, monkeypatch):
        rng = random.Random(10)
        validated = 0
        for _ in range(40):
            ps = PointSet([(rng.random(), rng.random()) for _ in range(10)])
            validated += self._check(monkeypatch, ps, itertools.combinations(range(10), 3))[2]
        assert validated >= 30

    def test_near_cocircular_sets(self, monkeypatch):
        rng = random.Random(11)
        for jitter in (1e-12, 1e-9, 1e-6, 1e-3):
            ps = PointSet(random_jittered_circle(rng, 9, jitter))
            count, k, _ = self._check(monkeypatch, ps, itertools.combinations(range(9), 3))
            assert k == 6

    @pytest.mark.parametrize("jitter", [1e-12, 1e-9])
    def test_sets_the_guard_rejects_keep_every_site_values(self, jitter):
        rng = random.Random(f"lv-rejected/{jitter}")
        rejected = 0
        for _ in range(10):
            ps = PointSet(random_jittered_circle(rng, 9, jitter))
            if is_general_position(ps):
                continue
            rejected += 1
            ev = Evaluator(ps)
            for tri in itertools.combinations(range(9), 3):
                assert ev.element_value("shrunk_circumcircle", tri) == (
                    all_pairs_shrunk_circumcircle(ps, tri)
                )
        assert rejected >= 3

    @pytest.mark.parametrize("jitter", [1e-9, 3e-9, 1e-8])
    def test_validated_sets_with_shallow_sites(self, monkeypatch, jitter):
        """Validated sets whose sites lie within about 1e-8 R of a
        circumcircle, where Delaunay-neighbour lists would drop or change
        short straight pieces."""
        rng = random.Random(f"lv-shallow/{jitter}")
        validated = 0
        for _ in range(10):
            ps = PointSet(random_jittered_circle(rng, 9, jitter))
            validated += self._check(monkeypatch, ps, itertools.combinations(range(9), 3))[2]
        assert validated >= 2

    def test_sites_on_the_circle_and_at_the_centre(self):
        rng = random.Random(12)
        circle = Circle(Point(0.3, -0.2), 1.7)
        (ox, oy), big_r = circle
        for _ in range(30):
            sites = []
            for _ in range(rng.randrange(1, 5)):  # ellipse b about 0
                ang = rng.uniform(0.0, 2.0 * math.pi)
                r = big_r * (1.0 + rng.uniform(-1e-9, 1e-9))
                sites.append(Point(ox + r * math.cos(ang), oy + r * math.sin(ang)))
            if rng.random() < 0.5:
                sites.append(circle.center)
            for _ in range(rng.randrange(6)):
                r = big_r * math.sqrt(rng.random())
                ang = rng.uniform(0.0, 2.0 * math.pi)
                sites.append(Point(ox + r * math.cos(ang), oy + r * math.sin(ang)))
            rng.shuffle(sites)
            assert local_voronoi(circle, sites) == local_voronoi_in_index_order(circle, sites)


class TestLocalVoronoi:
    def test_no_sites(self):
        lv = local_voronoi(Circle(Point(0, 0), 1.0), [])
        assert lv.segments == ()

    def test_single_site_worked_example(self):
        lv = local_voronoi(Circle(Point(1, -0.75), 1.25), [Point(1, -0.5)])
        assert len(lv.segments) == 1
        seg = lv.segments[0]
        assert isinstance(seg, EllipticalSegment)
        assert (seg.theta_lo, seg.theta_hi) == (0.0, 2 * math.pi)
        ell = seg.ellipse
        assert ell.center == pytest.approx((1.0, -0.625))
        assert ell.a == pytest.approx(0.625)
        assert ell.b == pytest.approx(math.sqrt(0.375))

    def test_two_sites_structure(self):
        lv = local_voronoi(
            Circle(Point(0, 0), 1.0), [Point(-0.3, 0.0), Point(0.35, 0.1)]
        )
        kinds = sorted(type(s).__name__ for s in lv.segments)
        assert kinds == ["EllipticalSegment", "EllipticalSegment", "StraightSegment"]

    def test_site_outside_rejected(self):
        with pytest.raises(SiteOutsideCircle):
            local_voronoi(Circle(Point(0, 0), 1.0), [Point(2, 0)])

    def test_site_at_center_degenerates_to_circle(self):
        # coincident foci: the locus is the circle of half the radius
        lv = local_voronoi(Circle(Point(0, 0), 2.0), [Point(0, 0)])
        (seg,) = lv.segments
        for theta in (0.0, 1.0, 2.5, 4.0):
            x = seg.ellipse.point_at(theta)
            assert math.hypot(x[0], x[1]) == pytest.approx(1.0, rel=1e-12)
            assert seg.ellipse.radius_at(theta) == pytest.approx(1.0, rel=1e-12)

    def test_elliptical_focal_sum_and_straight_equidistance(self):
        rng = random.Random(19)
        circle = Circle(Point(0.5, -0.25), 2.0)
        for _ in range(10):
            sites = []
            while len(sites) < 3:
                cand = Point(
                    circle.center.x + rng.uniform(-1.4, 1.4),
                    circle.center.y + rng.uniform(-1.4, 1.4),
                )
                if math.dist(cand, circle.center) < 0.95 * circle.radius:
                    sites.append(cand)
            lv = local_voronoi(circle, sites)
            for seg in lv.segments:
                if isinstance(seg, EllipticalSegment):
                    for f in (0.2, 0.7):
                        theta = seg.theta_lo + f * (seg.theta_hi - seg.theta_lo)
                        x = seg.ellipse.point_at(theta)
                        to_center = math.dist(x, circle.center)
                        to_site = math.dist(x, seg.site)
                        assert to_center + to_site == pytest.approx(
                            circle.radius, rel=1e-9
                        )
                        assert to_site == pytest.approx(
                            seg.ellipse.radius_at(theta), rel=1e-9
                        )
                        # the owning site is nearest among all sites
                        assert all(
                            math.dist(x, s) >= to_site - 1e-9 for s in sites
                        )
                else:
                    si, sj = seg.sites
                    for f in (0.0, 0.5, 1.0):
                        x = Point(
                            seg.a.x + f * (seg.b.x - seg.a.x),
                            seg.a.y + f * (seg.b.y - seg.a.y),
                        )
                        di, dj = math.dist(x, si), math.dist(x, sj)
                        assert di == pytest.approx(dj, rel=1e-9)
                        assert all(math.dist(x, s) >= di - 1e-9 for s in sites)
                        # the circle through both sites fits inside
                        assert math.dist(x, circle.center) + di <= circle.radius * (
                            1 + 1e-9
                        )


class TestShrunkCircumcircle:
    def test_worked_example(self, p4):
        assert metric_value("shrunk_circumcircle", p4, (0, 1, 2)) == pytest.approx(
            0.1301, abs=2e-3
        )

    def test_delaunay_triangles_are_one(self, p4):
        for tri in delaunay(p4).triangles:
            assert metric_value("shrunk_circumcircle", p4, tri) == 1.0

    def test_matches_grid_oracle(self, p4):
        assert metric_value("shrunk_circumcircle", p4, (0, 1, 2)) == pytest.approx(
            grid_shrunk_circumcircle(p4, (0, 1, 2)), abs=2e-3
        )
        for seed in (7, 8):
            ps = random_point_set(8, seed=seed)
            t = flip_neighbors(delaunay(ps))[0]
            for tri in t.triangles:
                assert metric_value("shrunk_circumcircle", ps, tri) == pytest.approx(
                    grid_shrunk_circumcircle(ps, tri), abs=2e-3
                )

    def test_matches_grid_oracle_on_fixtures(self):
        for ps in (wheel_point_set(), long_delaunay_point_set()):
            t = flip_neighbors(delaunay(ps))[0]
            dt = set(delaunay(ps).triangles)
            for tri in (tri for tri in t.triangles if tri not in dt):
                assert metric_value("shrunk_circumcircle", ps, tri) == pytest.approx(
                    grid_shrunk_circumcircle(ps, tri), abs=2e-3
                )

    def test_closed_form_matches_bisection(self):
        # Absolute tolerance: the normalisation (best^2 - ri^2) / (R^2 - ri^2)
        # cancels near 0, so a relative one fails on scores of order 1e-8.
        rng = random.Random(5)
        for n in (7, 8, 9, 10):
            ps = random_point_set(n, seed=rng.randrange(10**6))
            for tri in itertools.combinations(range(n), 3):
                if orientation(*(ps[i] for i in tri)) is Orientation.COLLINEAR:
                    continue
                ours = metric_value("shrunk_circumcircle", ps, tri)
                sampled = bisection_shrunk_circumcircle(ps, tri)
                assert abs(ours - sampled) <= 1e-12
                assert ours >= sampled - 1e-12

    def test_root_between_samples(self):
        # The site was moved until, along its ellipse, side (0, 1)'s residual
        # (distance to the side minus radius) is positive only on a window
        # narrower than the sample spacing, peaking at +1e-4 R between two of
        # the 129 samples, with side (2, 0)'s root inside that window.  The
        # largest admissible circle sits at the window's upper edge.  Every
        # sample is feasible for (0, 1), so bisection sees no sign change and
        # settles for a smaller circle; the closed form solves for the edge.
        ps = PointSet(
            [
                (0.0, 0.0),
                (1.0, 0.0),
                (0.26845186591912995, 0.3300428452780354),
                (0.38188343935943175, 5.172567786802894e-05),
            ]
        )
        tri = (0, 1, 2)
        (seg,) = local_voronoi(circumcircle(*ps.points[:3]), [ps[3]]).segments
        ell = seg.ellipse

        def residual(th):
            x = ell.point_at(th)
            return _dist_point_segment(x, ps[0], ps[1]) - ell.radius_at(th)

        samples = [seg.theta_hi * k / 128 for k in range(129)]
        dense = [seg.theta_hi * k / (128 * 64) for k in range(128 * 64 + 1)]
        window = [th for th in dense if residual(th) > 0.0]
        assert window and window[-1] - window[0] < samples[1]
        assert all(residual(th) <= 0.0 for th in samples)
        value = metric_value("shrunk_circumcircle", ps, tri)
        assert value > bisection_shrunk_circumcircle(ps, tri) + 0.01
        assert value == pytest.approx(grid_shrunk_circumcircle(ps, tri), abs=2e-3)

    def test_furthest_point_rejected_for_tangency(self, p4):
        # In the worked fixture the far vertex of the ellipse defines a circle
        # that misses the long side entirely; the side filter must reject it
        # and settle on a tangency placement instead.
        circ = circumcircle(p4[0], p4[1], p4[2])
        lv = local_voronoi(circ, [p4[3]])
        ell = lv.segments[0].ellipse
        far = ell.point_at(0.0)
        far_radius = ell.radius_at(0.0)
        assert _dist_point_segment(far, p4[0], p4[1]) > far_radius
        value = metric_value("shrunk_circumcircle", p4, (0, 1, 2))
        far_score = None  # the far placement would score higher if allowed
        inc = 0.2360680
        far_score = (far_radius**2 - inc**2) / (circ.radius**2 - inc**2)
        assert far_score > value


def _moved(ps, scale=1.0, offset=0.0):
    return PointSet([(x * scale + offset, y * scale + offset) for x, y in ps.points])


def _fan(n):
    return [(0, i, i + 1) for i in range(1, n - 1)]


SEARCH_SETS = {
    **{
        f"random{n}": (lambda n=n: random_point_set(n, seed=2100 + n), None)
        for n in (8, 10, 12, 16, 20, 30)
    },
    # every triple through point 0: all triples at n = 40 take about 20 s
    "random40": (
        lambda: random_point_set(40, seed=2140),
        [t for t in itertools.combinations(range(40), 3) if t[0] == 0],
    ),
    **{
        f"circle9-{jitter}": (
            lambda jitter=jitter: PointSet(random_jittered_circle(random.Random(2200), 9, jitter)),
            None,
        )
        for jitter in (3e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-3)
    },
    **{
        f"offset{offset:g}": (
            lambda offset=offset: _moved(random_point_set(12, 2300), offset=offset),
            None,
        )
        for offset in (1e6, 1e7)
    },
    **{
        f"scale{scale:g}": (lambda scale=scale: _moved(random_point_set(12, 2300), scale), None)
        for scale in (1e-6, 1e6)
    },
    # criterion 10's convex-position family, its fans included
    **{f"circle{n}": (lambda n=n: jittered_circle_points(n), None) for n in (10, 20)},
    **{f"circle{n}-fan": (lambda n=n: jittered_circle_points(n), _fan(n)) for n in (40, 80)},
}


class TestScreenedSearch:
    """_largest_contained_circle, which screens the diagram's pieces and
    visits them by radius bound, gives exactly the value of the full
    candidate loop in tests/oracles.py on every diagram the metric builds."""

    @pytest.mark.parametrize("name", sorted(SEARCH_SETS))
    def test_same_value_as_the_full_search(self, monkeypatch, name):
        make, triangles = SEARCH_SETS[name]
        ps = make()
        screened = metrics._largest_contained_circle
        compared = 0

        def both(corners, diagram):
            nonlocal compared
            compared += 1
            value = screened(corners, diagram)
            assert value == full_search_largest_contained_circle(corners, diagram), corners
            return value

        monkeypatch.setattr(metrics, "_largest_contained_circle", both)
        ev = Evaluator(ps)
        for tri in triangles or itertools.combinations(range(len(ps)), 3):
            if orientation(*(ps[i] for i in tri)) is not Orientation.COLLINEAR:
                ev.element_value("shrunk_circumcircle", tri)
        assert compared > 0


class TestShrunkCircumcircleBound:
    """The optimistic bound of shrunk_circumcircle (``Metric.bound``) is at
    least the value on every triangle of SEARCH_SETS, exactly 1 where the
    circumcircle holds no site, and below 1 on most triangles of the random
    sets whose circumcircle holds one, so a bound that is always 1 fails."""

    @pytest.mark.parametrize("name", sorted(SEARCH_SETS))
    def test_at_least_the_value(self, name):
        make, triangles = SEARCH_SETS[name]
        ps = make()
        ev = Evaluator(ps)
        bound = lookup_metric("shrunk_circumcircle").bound
        occupied = below = 0
        for tri in triangles or itertools.combinations(range(len(ps)), 3):
            if orientation(*(ps[i] for i in tri)) is Orientation.COLLINEAR:
                continue
            b = bound(ev, tri)
            assert b >= ev.element_value("shrunk_circumcircle", tri), tri
            if ev.inside(tri):
                occupied += 1
                below += b < 1.0
            else:
                assert b == 1.0, tri
        if name.startswith("random"):
            assert below > 0.9 * occupied, (below, occupied)

    def test_raises_where_the_value_does(self):
        # a site the float circle does not hold: skipping the element on
        # its bound must not turn the value's error into a result
        ps = random_point_set(8, seed=2400)
        tri = (0, 1, 2)
        far = next(i for i in range(3, 8) if not in_circumcircle(*(ps[j] for j in tri), ps[i]))
        ev = Evaluator(ps)
        ev._inside[tri] = [far]
        with pytest.raises(SiteOutsideCircle):
            lookup_metric("shrunk_circumcircle").bound(ev, tri)
        with pytest.raises(SiteOutsideCircle):
            ev.element_value("shrunk_circumcircle", tri)


class TestNearCocircular:
    """Sites within rounding of a circumcircle: both triangle metrics pick them
    with the exact in_circumcircle predicate, as the Delaunay construction does."""

    def test_float_inside_exact_not_inside(self):
        # In exact arithmetic the fourth point is not inside the circle through
        # the first three, while its float squared distance is below R^2.
        ps = PointSet([(-24.9, 0.3), (-23.9, -6.7), (-14.9, -19.7), (-19.9, 15.3)])
        circ = circumcircle(*ps.points[:3])
        assert not in_circumcircle(*ps.points[:3], ps[3])
        assert (ps[3].x - circ.center.x) ** 2 + (ps[3].y - circ.center.y) ** 2 < circ.radius**2
        assert metric_value("shrunk_circumcircle", ps, (0, 1, 2)) == 1.0
        value = metric_value("triangular_lens", ps, (0, 1, 2))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_exact_inside_float_on_circle(self):
        # The fourth point is inside by the predicate, but its float distance
        # rounds to R, so its ellipse degenerates to a segment (b = 0).
        ps = PointSet(
            [
                (-24.9, 0.3),
                (-14.9, -19.7),
                (-6.9, -23.7),
                (-23.899999999999995, 7.299999999999999),
                (-20.0, 0.0),
            ]
        )
        circ = circumcircle(*ps.points[:3])
        assert in_circumcircle(*ps.points[:3], ps[3])
        assert math.dist(circ.center, ps[3]) >= circ.radius
        lv = local_voronoi(circ, [ps[3], ps[4]])
        assert any(isinstance(s, StraightSegment) for s in lv.segments)
        on_circle = PointSet(ps.points[:4])
        for metric in TRIANGLE_METRICS:
            value = metric_value(metric, on_circle, (0, 1, 2))
            assert value == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= metric_value("shrunk_circumcircle", ps, (0, 1, 2)) < 1.0


class TestEvaluate:
    def test_delaunay_perfect_everywhere(self):
        ps = random_point_set(10, seed=90)
        dt = delaunay(ps)
        for metric in ALL_METRICS:
            for s in evaluate(dt, metric):
                assert abs(s.value - PERFECT_VALUE[metric]) <= 1e-9

    def test_triangulation_of_another_set_rejected(self):
        t = delaunay(random_point_set(7, 1))
        ev = Evaluator(random_point_set(7, 2))
        with pytest.raises(MismatchedPointSets):
            ev.scores(t, "lens")
        with pytest.raises(MismatchedPointSets):
            ev.values(t, "lens")

    def test_bad_diagonal_single_quad_score(self, p4):
        scores = evaluate(bad_diagonal(p4), "opposing_angles")
        assert len(scores) == 1
        assert scores[0].value == pytest.approx(1.28700, abs=1e-5)

    def test_element_counts(self):
        ps = random_point_set(10, seed=91)
        t = delaunay(ps)
        h = len(ps.hull())
        n_edges = len(t.edges())
        for metric in QUADRILATERAL_METRICS:
            assert len(evaluate(t, metric)) == n_edges - h
        for metric in EDGE_METRICS:
            assert len(evaluate(t, metric)) == n_edges
        for metric in TRIANGLE_METRICS:
            assert len(evaluate(t, metric)) == len(t.triangles)

    def test_flip_neighbors_strictly_imperfect(self):
        ps = random_point_set(9, seed=92)
        dt = delaunay(ps)
        ev = Evaluator(ps)
        for t in flip_neighbors(dt):
            for metric in ALL_METRICS:
                worst = max(imperfection(metric, v) for v in ev.values(t, metric))
                assert worst > 1e-9

    def test_orientations(self, p4):
        t = bad_diagonal(p4)
        for metric in QUADRILATERAL_METRICS:
            assert all(
                s.orientation is ScoreOrientation.LOWER_BETTER
                for s in evaluate(t, metric)
            )
        for metric in EDGE_METRICS + TRIANGLE_METRICS:
            assert all(
                s.orientation is ScoreOrientation.HIGHER_BETTER
                for s in evaluate(t, metric)
            )

    def test_unknown_metric(self, p4):
        with pytest.raises(ValueError):
            evaluate(bad_diagonal(p4), "sharpness")

    @pytest.mark.parametrize("name", ["nope", ["lens"]])
    def test_unknown_metric_from_the_evaluator(self, p4, name):
        ev = Evaluator(p4)
        with pytest.raises(NearDelaunayError, match=re.escape(f"unknown metric {name!r}")):
            ev.element_value(name, (0, 1))
        with pytest.raises(NearDelaunayError, match=re.escape(f"unknown metric {name!r}")):
            ev.fill(name, [(0, 1)])

    @pytest.mark.parametrize("metric", QUADRILATERAL_METRICS)
    def test_same_side_apexes_rejected(self, metric):
        # both apexes of interior edge (0, 1) lie above it
        ps = PointSet([(0, 0), (2, 0), (1, 0.5), (1, 1.7)])
        with pytest.raises(ValueError, match="opposite sides"):
            evaluate(Triangulation(ps, [(0, 1, 2), (0, 1, 3)]), metric)


class TestFill:
    """Evaluator.fill with and without the metric's bound, on the triangles
    of a table's rows, some of them cached."""

    METRIC = "shrunk_circumcircle"  # the metric with a bound

    @pytest.fixture(scope="class")
    def keys(self):
        table = triangulation_table(random_point_set(8, seed=95))
        return table.point_set, [table.triangles[e] for e in np.unique(table.rows).tolist()]

    def test_values_without_bound(self, keys):
        ps, keys = keys
        values, exact = Evaluator(ps).fill(self.METRIC, keys)
        assert values.shape == exact.shape == (len(keys),) and exact.all()
        fresh = Evaluator(ps)
        assert values.tolist() == [fresh.element_value(self.METRIC, key) for key in keys]

    def test_bound_in_place_of_uncached_values(self, keys):
        ps, keys = keys
        ev = Evaluator(ps)
        cached = set(keys[::3])
        for key in cached:
            ev.element_value(self.METRIC, key)
        bound = lookup_metric(self.METRIC).bound
        values, exact = ev.fill(self.METRIC, keys, bound=True)
        assert exact.tolist() == [key in cached for key in keys]
        fresh = Evaluator(ps)
        want = [fresh.element_value(self.METRIC, key) for key in keys]
        below_one = 0
        for key, got, value in zip(keys, values.tolist(), want):
            if key in cached:
                assert got == value
            else:
                assert got == bound(fresh, key) >= value  # higher is better
                below_one += got < 1.0
        assert below_one  # some bound is not the trivial 1
        # a bound is never cached as a value
        values, exact = ev.fill(self.METRIC, keys)
        assert exact.all() and values.tolist() == want

    @pytest.mark.parametrize("metric", ["lens", "triangular_lens", "dual_edge_ratio"])
    def test_bound_of_a_metric_without_one(self, metric):
        table = triangulation_table(random_point_set(7, seed=96))
        ids, element = table.element_ids(lookup_metric(metric).decomposition)
        keys = [element(e) for e in np.unique(ids).tolist()]
        values, exact = Evaluator(table.point_set).fill(metric, keys, bound=True)
        assert exact.all()
        fresh = Evaluator(table.point_set)
        assert values.tolist() == [fresh.element_value(metric, key) for key in keys]

    @pytest.mark.parametrize("bounded", [False, True])
    def test_few_and_no_keys(self, keys, bounded):
        ps, keys = keys
        ev = Evaluator(ps)
        values, exact = ev.fill(self.METRIC, [keys[7], keys[3], keys[7]], bounded)
        assert exact.tolist() == [not bounded] * 3
        assert values[0] == values[2]
        values, exact = ev.fill(self.METRIC, [], bounded)
        assert values.shape == exact.shape == (0,)


class TestInCircumcircleScreen:
    """The batched in-circle screen against the scalar predicate, ``==``."""

    @staticmethod
    def assert_same_scan(pts):
        tris = list(itertools.combinations(range(len(pts)), 3))
        want = [per_point_inside_circumcircle(pts, t) for t in tris]
        assert metrics._inside_circumcircles(pts, tris) == want

    @pytest.mark.parametrize("n", range(4, 15))
    def test_random_sets(self, n):
        self.assert_same_scan(random_point_set(n, seed=1500 + n).points)

    @pytest.mark.parametrize("n", range(4, 15))
    def test_offset_sets(self, n):
        pts = random_point_set(n, seed=1600 + n).points
        self.assert_same_scan([(x + 1e6, y + 1e6) for x, y in pts])

    def test_jittered_circles_reach_the_exact_path(self, monkeypatch):
        calls = 0
        scalar = metrics.in_circumcircle

        def counted(*args):
            nonlocal calls
            calls += 1
            return scalar(*args)

        for jitter in (1e-12, 1e-10, 1e-8, 1e-6):
            for n in range(4, 15):
                pts = random_jittered_circle(random.Random(f"{jitter}/{n}"), n, jitter)
                tris = list(itertools.combinations(range(n), 3))
                for module in (geom, metrics):
                    monkeypatch.setattr(module, "in_circumcircle", counted)
                got = metrics._inside_circumcircles(pts, tris)
                for module in (geom, metrics):
                    monkeypatch.setattr(module, "in_circumcircle", scalar)
                assert got == [per_point_inside_circumcircle(pts, t) for t in tris], (jitter, n)
        assert calls > 0  # some pairs were left to the exact predicate

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("metric", [m.name for m in METRICS if m.zero_outside])
    def test_screened_quadrilateral_values(self, n, metric):
        table = triangulation_table(random_point_set(n, seed=1700 + n))
        ids, element = table.element_ids(lookup_metric(metric).decomposition)
        keys = [element(code) for code in np.unique(ids).tolist()]
        values, exact = Evaluator(table.point_set).fill(metric, keys)
        assert exact.all()
        value = lookup_metric(metric).value
        fresh = Evaluator(table.point_set)
        zeros = 0
        for key, got in zip(keys, values.tolist()):
            assert got == value(fresh, key)
            zeros += got == 0.0
        assert zeros  # the screen settled some quadrilaterals

    def test_cold_fill_needs_no_scalar_in_circle(self, monkeypatch):
        # the bounds of a cold sum query read every used triangle's inside
        # list, all from the batched screen on a set in general position
        table = triangulation_table(random_point_set(12, seed=1201))
        calls = 0
        scalar = metrics.in_circumcircle

        def counted(*args):
            nonlocal calls
            calls += 1
            return scalar(*args)

        for module in (geom, metrics):
            monkeypatch.setattr(module, "in_circumcircle", counted)
        m = lookup_metric("shrunk_circumcircle")
        ev = Evaluator(table.point_set)
        keys = [table.triangles[e] for e in np.unique(table.rows).tolist()]
        ev.fill(m.name, keys, bound=True)
        assert len(ev._inside) == len(keys) > 100
        assert calls == 0


class TestRegistry:
    def test_views_of_the_registry(self):
        assert ALL_METRICS == tuple(m.name for m in METRICS) == (
            "opposing_angles",
            "dual_edge_ratio",
            "dual_area_overlap",
            "lens",
            "shrunk_circle",
            "triangular_lens",
            "shrunk_circumcircle",
        )
        assert QUADRILATERAL_METRICS == ALL_METRICS[:3]
        assert EDGE_METRICS == ("lens", "shrunk_circle")
        assert TRIANGLE_METRICS == ("triangular_lens", "shrunk_circumcircle")
        assert PERFECT_VALUE == {
            "opposing_angles": 0.0,
            "dual_edge_ratio": 0.0,
            "dual_area_overlap": 0.0,
            "lens": math.pi,
            "shrunk_circle": 1.0,
            "triangular_lens": 1.0,
            "shrunk_circumcircle": 1.0,
        }
        for name in ALL_METRICS:
            lower = name in QUADRILATERAL_METRICS
            assert lookup_metric(name).orientation is (
                ScoreOrientation.LOWER_BETTER if lower else ScoreOrientation.HIGHER_BETTER
            )

    def test_unknown_name(self):
        with pytest.raises(NearDelaunayError, match="unknown metric 'sharpness'"):
            lookup_metric("sharpness")


class TestSimilarityInvariance:
    def test_scores_invariant(self):
        rng = random.Random(7)
        ps = random_point_set(8, seed=93)
        t = flip_neighbors(delaunay(ps))[0]
        base = {m: Evaluator(ps).values(t, m) for m in ALL_METRICS}
        for _ in range(5):
            moved = similarity_transform(
                ps,
                rotation=rng.uniform(0, 2 * math.pi),
                scale=rng.uniform(0.1, 10.0),
                translation=(rng.uniform(-20, 20), rng.uniform(-20, 20)),
                reflect=rng.random() < 0.5,
            )
            t2 = Triangulation(moved, t.triangles)
            ev = Evaluator(moved)
            for metric in ALL_METRICS:
                for a, b in zip(base[metric], ev.values(t2, metric)):
                    assert b == pytest.approx(a, rel=1e-6, abs=1e-9)


class TestContinuity:
    def test_small_perturbation_small_change(self):
        ps = random_point_set(8, seed=94, guard=1e-5)
        t = flip_neighbors(delaunay(ps))[0]
        rng = random.Random(3)
        moved = PointSet(
            [
                (p.x + rng.uniform(-1e-6, 1e-6), p.y + rng.uniform(-1e-6, 1e-6))
                for p in ps
            ]
        )
        t2 = Triangulation(moved, t.triangles)
        ev1, ev2 = Evaluator(ps), Evaluator(moved)
        for metric in ALL_METRICS:
            for a, b in zip(ev1.values(t, metric), ev2.values(t2, metric)):
                assert abs(a - b) < 1e-3


class TestDivergencePairs:
    @pytest.mark.parametrize("builder", ALL_PAIRS, ids=lambda b: b.__name__)
    def test_equal_on_one_metric_different_on_the_other(self, builder):
        t, t2, element, metric_eq, metrics_diff = builder()
        from neardelaunay.triangulation import validate

        assert validate(t) and validate(t2)
        a = score_element(t, element, metric_eq)
        b = score_element(t2, element, metric_eq)
        assert abs(a - b) <= 1e-9
        for metric in metrics_diff:
            x = score_element(t, element, metric)
            y = score_element(t2, element, metric)
            assert abs(x - y) >= 1e-3
