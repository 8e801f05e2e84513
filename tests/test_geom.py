import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from neardelaunay.errors import (
    DegeneratePoints,
    DegenerateTriangle,
    GeneralPositionViolated,
    NearDelaunayError,
    NotAChord,
)
from neardelaunay import geom as geom_module
from neardelaunay.aggregate import AggregationMode, optimize
from neardelaunay.delaunay import delaunay
from neardelaunay.geom import (
    Circle,
    Orientation,
    Point,
    PointSet,
    Segment,
    SegmentSide,
    angle_at,
    chord_overlap_length,
    circular_segment_area,
    circumcircle,
    in_circumcircle,
    inscribed_circle,
    inside_circumcircle,
    is_general_position,
    orientation,
    separates,
    validate_general_position,
)

from neardelaunay.pointgen import random_point_set, wheel_point_set
from neardelaunay.triangulation import MaxDegree

from conftest import (
    PREDICATE_SETS,
    jittered_circle_points,
    random_jittered_circle,
    validated_edge_sets,
)
from oracles import (
    InvalidScale,
    general_position_message,
    incircle_distance_oracle,
    per_point_inside_circumcircle,
    similarity_transform,
)


class TestOrientation:
    def test_unit_right_triangle_ccw(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) is Orientation.CCW

    def test_collinear_on_diagonal(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) is Orientation.COLLINEAR

    def test_mirror_is_cw(self):
        assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) is Orientation.CW

    def test_antisymmetry(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3))
            if orientation(a, b, c) is Orientation.COLLINEAR:
                continue
            assert orientation(a, b, c).value == -orientation(a, c, b).value

    def test_sign_reliable_near_degeneracy(self):
        # c sits a hair off the line through a and b; the float determinant
        # cancels but the exact fallback must still see the right side.
        a, b = Point(0.0, 0.0), Point(1e7, 1e7)
        above = Point(0.5e7, 0.5e7 + 1e-8)
        below = Point(0.5e7, 0.5e7 - 1e-8)
        assert orientation(a, b, above) is Orientation.CCW
        assert orientation(a, b, below) is Orientation.CW


class TestSeparates:
    A, B = Point(0.0, 0.0), Point(1e7, 1e7)
    ABOVE = Point(0.5e7, 0.5e7 + 1e-8)
    BELOW = Point(0.5e7, 0.5e7 - 1e-8)

    def test_opposite_sides(self):
        assert separates(self.A, self.B, self.ABOVE, self.BELOW)
        assert separates(self.B, self.A, self.BELOW, self.ABOVE)

    def test_same_side(self):
        assert not separates(self.A, self.B, self.ABOVE, Point(0.0, 1.0))

    @pytest.mark.parametrize(
        "on_line", [Point(0.5e7, 0.5e7), Point(2e7, 2e7), Point(-1.0, -1.0)]
    )
    def test_a_collinear_point_is_on_neither_side(self, on_line):
        assert not separates(self.A, self.B, on_line, self.BELOW)
        assert not separates(self.A, self.B, self.ABOVE, on_line)
        assert not separates(self.A, self.B, on_line, on_line)

    def test_matches_orientation_signs(self):
        rng = random.Random(8)
        for _ in range(200):
            a, b, c, d = (Point(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4))
            sides = {orientation(a, b, c), orientation(a, b, d)}
            assert separates(a, b, c, d) == (sides == {Orientation.CCW, Orientation.CW})


class TestInCircumcircle:
    def test_close_point_inside(self):
        # circumcenter (1, -0.75), radius 1.25; (1, -0.5) is 0.25 away
        assert in_circumcircle(Point(0, 0), Point(2, 0), Point(1, 0.5), Point(1, -0.5))

    def test_far_point_outside(self):
        assert not in_circumcircle(Point(0, 0), Point(2, 0), Point(1, 2), Point(1, -2))

    def test_distant_point_outside(self):
        assert not in_circumcircle(Point(0, 0), Point(2, 0), Point(1, 0.5), Point(10, 10))

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangle):
            in_circumcircle(Point(0, 0), Point(1, 1), Point(2, 2), Point(0, 1))

    def test_order_invariance(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b, c, d = (Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4))
            if orientation(a, b, c) is Orientation.COLLINEAR:
                continue
            ref = in_circumcircle(a, b, c, d)
            assert in_circumcircle(b, c, a, d) == ref
            assert in_circumcircle(c, a, b, d) == ref
            assert in_circumcircle(a, c, b, d) == ref

    def test_matches_distance_oracle(self):
        rng = random.Random(13)
        for _ in range(300):
            a, b, c, d = (Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4))
            if orientation(a, b, c) is Orientation.COLLINEAR:
                continue
            circ = circumcircle(a, b, c)
            # skip knife-edge cases where the float oracle itself is unsure
            if abs(math.dist(circ.center, d) - circ.radius) < 1e-9 * circ.radius:
                continue
            assert in_circumcircle(a, b, c, d) == incircle_distance_oracle(a, b, c, d)


def _calls(monkeypatch, name, run, *args):
    """The arguments of every call of geom's `name` during run(*args), as
    sorted coordinate tuples."""
    seen, real = [], getattr(geom_module, name)

    def counted(*points):
        seen.append(tuple(tuple(map(float, p)) for p in points))
        return real(*points)

    with monkeypatch.context() as patch:
        patch.setattr(geom_module, name, counted)
        run(*args)
    return sorted(seen)


class TestArrayPredicates:
    """``orientations`` and ``in_circles`` against the scalar predicates, ``==``."""

    @pytest.mark.parametrize("family", PREDICATE_SETS)
    def test_orientations(self, family):
        pts = PREDICATE_SETS[family]()
        a, b, c = np.indices((len(pts),) * 3).reshape(3, -1)  # repeated indices too
        got = geom_module.orientations(np.array(pts, dtype=float), a, b, c)
        assert got.dtype == np.int8
        want = [orientation(pts[i], pts[j], pts[k]).value for i, j, k in zip(a, b, c)]
        assert got.tolist() == want

    @pytest.mark.parametrize("family", PREDICATE_SETS)
    def test_in_circles(self, family):
        pts = PREDICATE_SETS[family]()
        xy, n = np.array(pts, dtype=float), len(pts)
        abc = np.array(list(itertools.permutations(range(n), 3)), dtype=np.intp)
        turn = geom_module.orientations(xy, *abc.T)
        rows, flat = abc[turn != 0], abc[turn == 0]
        for d in (np.arange(n)[None, :], (rows[:, :2] + 1) % n):  # 1 x K and T x K
            got = geom_module.in_circles(xy, rows, d)
            per_row = np.broadcast_to(d, (len(rows), d.shape[1])).tolist()
            want = [
                [e not in row and in_circumcircle(*(pts[i] for i in row), pts[e]) for e in ds]
                for row, ds in zip(rows.tolist(), per_row)
            ]
            assert got.tolist() == want
        for row in flat[:20]:  # exact zeros of the grids
            with pytest.raises(DegenerateTriangle):
                geom_module.in_circles(xy, row[None, :], np.arange(n)[None, :])
            assert not geom_module.in_circles(xy, row[None, :], row[None, :]).any()

    @pytest.mark.parametrize("family", PREDICATE_SETS)
    def test_same_entries_reach_exact_arithmetic(self, family, monkeypatch):
        # the array forms hand the scalar exactly the entries that the
        # scalar's own float filter leaves to exact arithmetic
        pts = PREDICATE_SETS[family]()
        xy, n = np.array(pts, dtype=float), len(pts)
        abc = np.array(list(itertools.permutations(range(n), 3)), dtype=np.intp)
        rows = abc[geom_module.orientations(xy, *abc.T) != 0]
        handed = _calls(monkeypatch, "orientation", geom_module.orientations, xy, *abc.T)
        exact = _calls(
            monkeypatch, "_orient_det_exact", lambda: [orientation(*(pts[i] for i in t)) for t in abc]
        )
        assert handed == exact
        every = np.arange(n)[None, :]
        handed = _calls(monkeypatch, "in_circumcircle", geom_module.in_circles, xy, rows, every)
        pairs = [(row, e) for row in rows.tolist() for e in range(n) if e not in row]
        exact = _calls(
            monkeypatch,
            "_incircle_det_exact",
            lambda: [in_circumcircle(*(pts[i] for i in row), pts[e]) for row, e in pairs],
        )
        assert handed == exact

    def test_no_warning_escapes_on_overflow(self):
        # products overflow on the 1e200 set; its undecided entries go to the
        # scalar, and numpy's overflow warnings stay inside
        ps = PointSet(PREDICATE_SETS["overflow1e200"]())
        xy = np.array(ps.points, dtype=float)
        abc = np.array(list(itertools.combinations(range(len(ps)), 3)), dtype=np.intp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geom_module.in_circles(xy, abc, np.arange(len(ps))[None, :])
            optimize(ps, MaxDegree(5), "shrunk_circumcircle", AggregationMode.SUM)


class TestInsideCircumcircle:
    """The one-triangle scan ``==`` the per-point loop of ``in_circumcircle``
    calls that it replaced, both turns of every triangle, with no warning."""

    @staticmethod
    def assert_same_scan(pts, tris):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tri in tris:
                try:
                    want = per_point_inside_circumcircle(pts, tri)
                except DegenerateTriangle:
                    with pytest.raises(DegenerateTriangle):
                        inside_circumcircle(pts, tri)
                else:
                    assert inside_circumcircle(pts, tri) == want, tri

    @pytest.mark.parametrize("family", PREDICATE_SETS)
    def test_predicate_sets(self, family):
        pts = PREDICATE_SETS[family]()
        self.assert_same_scan(pts, itertools.permutations(range(len(pts)), 3))

    def test_validated_edge_sets(self):
        for ps in validated_edge_sets():
            tris = list(itertools.combinations(range(len(ps)), 3))
            self.assert_same_scan(ps.points, tris + [t[::-1] for t in tris])

    @pytest.mark.parametrize("n", [10, 20, 40, 80])
    def test_complexity_families(self, n):
        # the fan and Delaunay triangulations that criterion 10 times
        ps = jittered_circle_points(n)
        tris = [(0, i, i + 1) for i in range(1, n - 1)] + list(delaunay(ps).triangles)
        self.assert_same_scan(ps.points, tris + [t[::-1] for t in tris])

    @pytest.mark.parametrize("family", PREDICATE_SETS)
    def test_exact_only_where_in_circles_is_undecided(self, family, monkeypatch):
        pts = PREDICATE_SETS[family]()
        xy, n = np.array(pts, dtype=float), len(pts)
        every = np.arange(n)[None, :]
        exact = 0
        for tri in itertools.combinations(range(n), 3):
            if orientation(*(pts[i] for i in tri)) is Orientation.COLLINEAR:
                continue
            for turn in (tri, tri[::-1]):
                # the same points reach the scalar predicate, and exact arithmetic
                for name in ("in_circumcircle", "_incircle_det_exact"):
                    scanned = _calls(monkeypatch, name, inside_circumcircle, pts, turn)
                    screened = _calls(monkeypatch, name, geom_module.in_circles, xy, np.array([turn]), every)
                    assert scanned == screened, (name, turn)
                exact += len(scanned)
        if family in ("circle1e-12", "grid3x3", "overflow1e200"):
            assert exact  # cocircular, exactly or nearly, or overflowed

    def test_collinear_corners_raise_when_another_point_exists(self):
        line = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        for pts, tri in ((line, (0, 1, 2)), (line, (2, 0, 1)), (line[:2], (0, 1, 1))):
            assert inside_circumcircle(pts, tri) == per_point_inside_circumcircle(pts, tri) == []
        raising = [(line, (0, 1, 1))]
        for other in ((0.0, 1.0), (3.0, 3.0)):
            raising += [(line + [other], (0, 1, 2)), ([other] + line, (3, 1, 2))]
        for pts, tri in raising:
            with pytest.raises(DegenerateTriangle):
                per_point_inside_circumcircle(pts, tri)
            with pytest.raises(DegenerateTriangle):
                inside_circumcircle(pts, tri)


class TestCircumcircle:
    def test_skinny_triangle(self):
        c = circumcircle(Point(0, 0), Point(2, 0), Point(1, 0.5))
        assert c.center == pytest.approx((1.0, -0.75))
        assert c.radius == pytest.approx(1.25)

    def test_tall_triangle(self):
        c = circumcircle(Point(0, 0), Point(2, 0), Point(1, 2))
        assert c.center == pytest.approx((1.0, 0.75))
        assert c.radius == pytest.approx(1.25)

    def test_right_triangle_hypotenuse_midpoint(self):
        c = circumcircle(Point(0, 0), Point(2, 0), Point(0, 2))
        assert c.center == pytest.approx((1.0, 1.0))
        assert c.radius == pytest.approx(math.sqrt(2))

    def test_equidistance_residual(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b, c = (Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3))
            if orientation(a, b, c) is Orientation.COLLINEAR:
                continue
            circ = circumcircle(a, b, c)
            for v in (a, b, c):
                assert abs(math.dist(circ.center, v) - circ.radius) <= 1e-9 * circ.radius

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangle):
            circumcircle(Point(0, 0), Point(1, 0), Point(2, 0))


class TestInscribedCircle:
    def test_skinny_triangle(self):
        c = inscribed_circle(Point(0, 0), Point(2, 0), Point(1, 0.5))
        assert c.center == pytest.approx((1.0, 0.2360680), abs=1e-6)
        assert c.radius == pytest.approx(0.2360680, abs=1e-6)

    def test_345_triangle(self):
        c = inscribed_circle(Point(0, 0), Point(4, 0), Point(0, 3))
        assert c.center == pytest.approx((1.0, 1.0))
        assert c.radius == pytest.approx(1.0)

    def test_equilateral(self):
        c = inscribed_circle(Point(0, 0), Point(2, 0), Point(1, math.sqrt(3)))
        assert c.center == pytest.approx((1.0, 1 / math.sqrt(3)))
        assert c.radius == pytest.approx(1 / math.sqrt(3))


class TestAngleAt:
    def test_apex_above(self):
        assert angle_at(Point(1, 2), Point(0, 0), Point(2, 0)) == pytest.approx(
            math.acos(3 / 5)
        )

    def test_apex_close(self):
        assert angle_at(Point(1, 0.5), Point(0, 0), Point(2, 0)) == pytest.approx(
            math.acos(-3 / 5)
        )

    def test_perpendicular(self):
        assert angle_at(Point(0, 0), Point(1, 0), Point(0, 1)) == pytest.approx(math.pi / 2)

    def test_coincident_raises(self):
        with pytest.raises(DegeneratePoints):
            angle_at(Point(0, 0), Point(0, 0), Point(1, 0))


class TestCircularSegmentArea:
    def test_minor_segment(self):
        area = circular_segment_area(
            Circle(Point(1, 0.75), 1.25),
            Segment(Point(0, 0), Point(2, 0)),
            SegmentSide.OPPOSITE_CENTER,
        )
        assert area == pytest.approx(0.69890, abs=1e-5)

    def test_major_segment(self):
        area = circular_segment_area(
            Circle(Point(1, -0.75), 1.25),
            Segment(Point(0, 0), Point(2, 0)),
            SegmentSide.CONTAINS_CENTER,
        )
        assert area == pytest.approx(4.20984, abs=1e-5)

    def test_diameter_halves_disk(self):
        c = Circle(Point(0, 0), 2.0)
        chord = Segment(Point(-2, 0), Point(2, 0))
        for side in SegmentSide:
            assert circular_segment_area(c, chord, side) == pytest.approx(
                math.pi * 2.0, rel=1e-12
            )

    def test_sides_sum_to_disk(self):
        rng = random.Random(5)
        for _ in range(100):
            r = rng.uniform(0.1, 10)
            cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
            a1 = rng.uniform(0, 2 * math.pi)
            a2 = a1 + rng.uniform(0.1, math.pi)
            chord = Segment(
                Point(cx + r * math.cos(a1), cy + r * math.sin(a1)),
                Point(cx + r * math.cos(a2), cy + r * math.sin(a2)),
            )
            c = Circle(Point(cx, cy), r)
            total = circular_segment_area(
                c, chord, SegmentSide.CONTAINS_CENTER
            ) + circular_segment_area(c, chord, SegmentSide.OPPOSITE_CENTER)
            assert total == pytest.approx(math.pi * r * r, rel=1e-9)

    def test_off_circle_endpoint_rejected(self):
        with pytest.raises(NotAChord):
            circular_segment_area(
                Circle(Point(0, 0), 1.0),
                Segment(Point(0.5, 0), Point(1, 0)),
                SegmentSide.OPPOSITE_CENTER,
            )


class TestChordOverlapLength:
    def test_disk_clips_segment(self):
        assert chord_overlap_length(
            Circle(Point(0.625, 0), 0.625), Segment(Point(0, 0), Point(2, 0))
        ) == pytest.approx(1.25)

    def test_disjoint(self):
        assert chord_overlap_length(
            Circle(Point(0, 5), 1.0), Segment(Point(0, 0), Point(2, 0))
        ) == 0.0

    def test_segment_inside(self):
        assert chord_overlap_length(
            Circle(Point(1, 0), 10.0), Segment(Point(0, 0), Point(2, 0))
        ) == pytest.approx(2.0)

    def test_monotone_in_radius(self):
        rng = random.Random(9)
        seg = Segment(Point(-1, 0.3), Point(2, -0.4))
        for _ in range(50):
            center = Point(rng.uniform(-2, 3), rng.uniform(-2, 2))
            radii = sorted(rng.uniform(0.01, 4) for _ in range(5))
            overlaps = [
                chord_overlap_length(Circle(center, r), seg) for r in radii
            ]
            assert all(x <= y + 1e-12 for x, y in zip(overlaps, overlaps[1:]))


class TestSimilarityTransform:
    def test_identity(self, p4):
        assert similarity_transform(p4).points == p4.points

    def test_half_turn(self):
        ps = PointSet([(1, 0), (0, 1), (-1, -1)])
        out = similarity_transform(ps, rotation=math.pi)
        assert out[0].x == pytest.approx(-1.0)
        assert out[0].y == pytest.approx(0.0, abs=1e-15)

    def test_scale_translate(self):
        ps = PointSet([(1, 1), (0, 0), (2, 0)])
        out = similarity_transform(ps, scale=2.0, translation=(3.0, 0.0))
        assert out[0] == pytest.approx((5.0, 2.0))

    def test_bad_scale(self, p4):
        with pytest.raises(InvalidScale):
            similarity_transform(p4, scale=0.0)

    def test_circles_commute_with_transform(self):
        rng = random.Random(21)
        for _ in range(50):
            pts = [Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
            if orientation(*pts) is Orientation.COLLINEAR:
                continue
            rot = rng.uniform(0, 2 * math.pi)
            scale = rng.uniform(0.5, 3.0)
            trans = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            reflect = rng.random() < 0.5
            ps = PointSet(pts)
            moved = similarity_transform(ps, rot, scale, trans, reflect)
            for build in (circumcircle, inscribed_circle):
                before = build(*ps.points)
                after = build(*moved.points)
                expected_center = similarity_transform(
                    PointSet([before.center, (9, 9), (8, -7)]), rot, scale, trans, reflect
                )[0]
                assert math.dist(after.center, expected_center) <= 1e-9 * after.radius
                assert after.radius == pytest.approx(scale * before.radius, rel=1e-9)


class TestPointSetValidation:
    def test_too_few_points(self):
        with pytest.raises(ValueError):
            PointSet([(0, 0), (1, 1)])

    def test_duplicates(self):
        with pytest.raises(ValueError):
            PointSet([(0, 0), (1, 1), (0, 0)])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            PointSet([(0, 0), (1, 1), (math.nan, 0)])

    @pytest.mark.parametrize(
        "bad, shown",
        [
            ((0,), "(0,)"),  # IndexError
            (("a", 1), "('a', 1)"),  # ValueError
            (None, "None"),  # TypeError
            ({"x": 0, "y": 1}, "{'x': 0, 'y': 1}"),  # KeyError
            ((0, [1]), "(0, [1])"),  # TypeError on the second number
            ((0, 0, 9), "(0, 0, 9)"),  # a third number is not dropped
            ((10**400, 0), f"({10**400}, 0)"),  # OverflowError
        ],
    )
    def test_point_needs_two_numbers(self, bad, shown):
        with pytest.raises(NearDelaunayError) as info:
            PointSet([(0, 0), (1, 0), bad])
        assert str(info.value) == f"point {shown} needs two numbers"

    def test_collinear_rejected(self):
        ps = PointSet([(0, 0), (1, 1), (2, 2), (0, 5)])
        with pytest.raises(GeneralPositionViolated, match="collinear"):
            validate_general_position(ps)

    def test_cocircular_rejected(self):
        ps = PointSet([(1, 0), (0, 1), (-1, 0), (0, -1), (3, 3)])
        with pytest.raises(GeneralPositionViolated, match="cocircular"):
            validate_general_position(ps)

    def test_good_set_passes(self, p4):
        validate_general_position(p4)
        assert is_general_position(p4)

    def test_guard_zero_rejects_exact_degeneracies(self):
        ps = PointSet([(0, 0), (1, 0), (2, 0), (0, 1)])
        with pytest.raises(GeneralPositionViolated, match="points 0, 1, 2 are collinear"):
            validate_general_position(ps, 0.0)
        assert not is_general_position(PointSet([(5, 0), (0, 5), (-3, 4), (4, -3)]), 0.0)
        assert is_general_position(PointSet([(0, 0), (1, 1e-300), (2, 0), (0, 1)]), 0.0)

    @pytest.mark.parametrize("guard", [math.nan, -1e-12, math.inf])
    def test_invalid_guard_raises(self, guard):
        ps = PointSet([(0, 0), (1, 0), (2, 0), (0, 1)])
        with pytest.raises(NearDelaunayError, match="guard must be finite and non-negative"):
            validate_general_position(ps, guard)
        # the failed call did not mark the set as checked
        assert not is_general_position(ps, 0.0)

    def test_guard_scale_invariance(self):
        # near-collinear relative to its size, at two very different scales
        for s in (1.0, 1e6):
            pts = [(0, 0), (s, 1e-10 * s), (2 * s, 0), (s, s)]
            assert not is_general_position(PointSet(pts), guard=1e-9)


GP_GUARDS = (1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.1)


def _random_sets(rng):
    for n in range(3, 41):
        yield [(rng.random(), rng.random()) for _ in range(n)]


def _lattices(rng):
    """5-wide lattices, exact and jittered, rows shuffled into random order."""
    for rows in (1, 2, 3, 4):
        for jitter in (0.0, 1e-9, 1e-6, 1e-3, 1e-1):
            pts = [
                (i + jitter * rng.uniform(-1, 1), j + jitter * rng.uniform(-1, 1))
                for j in range(rows)
                for i in range(5)
            ]
            rng.shuffle(pts)
            yield pts


def _jittered_circles(rng):
    for n in (4, 5, 8, 13, 21):
        for jitter in (0.0, 1e-9, 1e-6, 1e-3, 1e-1):
            pts = random_jittered_circle(rng, n, jitter)
            pts += [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randrange(4))]
            rng.shuffle(pts)
            yield pts


def _wheels(rng):
    """The experiment's wheel fixture, and a hub inside an exactly drawn rim."""
    for n_rim in range(4, 13):
        yield list(wheel_point_set(n_rim))
        angles = [2.0 * math.pi * k / n_rim + 0.3 for k in range(n_rim)]
        pts = [(0.01, 0.02)] + [(math.cos(t), math.sin(t)) for t in angles]
        pts.insert(rng.randrange(len(pts)), pts.pop(0))
        yield pts


def _with_midpoints(rng):
    """Random sets with the (possibly nudged) midpoint of two points inserted."""
    for n in (5, 9, 16, 25, 36):
        for nudge in (0.0, 1e-8, 1e-5, 1e-2):
            pts = [(rng.random(), rng.random()) for _ in range(n)]
            (ax, ay), (bx, by) = rng.sample(pts, 2)
            mid = ((ax + bx) / 2.0 + nudge, (ay + by) / 2.0 - nudge)
            pts.insert(rng.randrange(n + 1), mid)
            yield pts


FILTER_GUARDS = (0.0, 1e-14, 1e-12, 1e-9, 1e-6, 0.1)

# The twelve integer points of x^2 + y^2 = 25: exactly cocircular in floats.
CIRCLE_25 = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3),
             (-3, -4), (0, -5), (3, -4), (4, -3)]


def _exact_circles(rng):
    """Exactly cocircular points, some with extras and a 1e6 offset.  Points
    on one arc of a chord see it under one angle, so their keys are equal."""
    for size in (4, 5, 6, 8, 12):
        for offset in (0.0, 1e6):
            pts = rng.sample(CIRCLE_25, size)
            pts += [(rng.uniform(-6, 6), rng.uniform(-6, 6)) for _ in range(rng.randrange(4))]
            rng.shuffle(pts)
            yield [(x + offset, y + offset) for x, y in pts]


def _straddling_keys(rng):
    """Points 0 and 1 at (-1, 0) and (1, 0); c just above their chord and d
    just below.  The angles acb and adb are about pi - 2h and -(pi - 2h'),
    so the keys lie near pi and near 0: the window must wrap.  The
    quadruple is near-cocircular at guard (h + h') / 8, and no triple at
    guards below about h / 2."""
    for guard in FILTER_GUARDS[1:-1]:
        for _ in range(3):
            h, h2 = (guard * rng.uniform(2.2, 3.8) for _ in range(2))
            c, d = (rng.uniform(-0.5, 0.5), h), (rng.uniform(-0.5, 0.5), -h2)
            pts = [(-1.0, 0.0), (1.0, 0.0), c, d]
            pts += [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randrange(3))]
            yield pts


def _close_points(rng):
    """Random sets with a point very close to another: its distance product
    for any pair through that point is tiny, so its window is wide."""
    for n in (5, 9, 16, 25):
        for dist in (1e-4, 1e-7, 1e-10):
            pts = [(rng.random(), rng.random()) for _ in range(n)]
            x, y = rng.choice(pts)
            t = rng.uniform(0, 2 * math.pi)
            pts.insert(rng.randrange(n + 1), (x + dist * math.cos(t), y + dist * math.sin(t)))
            yield pts


def _close_pairs_on_a_circle(rng):
    """Pairs of close points on the unit circle.  A quadruple of two pairs
    has small distance products, so the rounding of its float determinant,
    which the guard 0 test sees, moves its keys far apart."""
    for n in (4, 6, 8, 10, 12):
        for _ in range(6):
            pts = []
            for _ in range(n // 2):
                t, dt = rng.uniform(0, 2 * math.pi), 10 ** rng.uniform(-4, -1)
                pts += [(math.cos(t), math.sin(t)), (math.cos(t + dt), math.sin(t + dt))]
            rng.shuffle(pts)
            yield pts


def _far_and_near_circles(rng):
    """Random and near-circle sets offset by 1e6, and near-circles jittered
    radially by 1e-16 to 1e-6."""
    for n in (6, 12, 20):
        yield [(1e6 + rng.random(), 1e6 + rng.random()) for _ in range(n)]
        for jitter in (1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
            offset = rng.choice((0.0, 1e6))
            pts = [(x + offset, y + offset) for x, y in random_jittered_circle(rng, n, jitter)]
            rng.shuffle(pts)
            yield pts


def _extreme_scales(rng):
    """Random sets and circles at scales where the whole-list oracle's
    determinants overflow or underflow unless the set is rescaled first."""
    for scale in (1e-150, 1e-100, 1e-60, 1e60, 1e100, 1e150):
        for n in (5, 8):
            yield [(scale * rng.random(), scale * rng.random()) for _ in range(n)]
            yield [(scale * x, scale * y) for x, y in random_jittered_circle(rng, n, 1e-9)]


class TestCocircularFilter:
    """The sorted-angle filter against the whole-list check, on sets made to
    reach its edge cases: equal keys, keys either side of 0 = pi, wide
    windows, large offsets, nearly cocircular points and extreme scales."""

    @pytest.mark.parametrize(
        "family",
        [_exact_circles, _straddling_keys, _close_points, _close_pairs_on_a_circle,
         _far_and_near_circles, _extreme_scales],
    )
    def test_same_message_as_whole_list_oracle(self, family):
        outcomes = set()
        for pts in family(random.Random(family.__name__)):
            # the oracle overflows at extreme scales: give it the set as
            # validate_general_position rescales it, by a power of two
            oracle_pts = _unit_scaled(pts) if family is _extreme_scales else pts
            for guard in FILTER_GUARDS:
                want = general_position_message(PointSet(oracle_pts), guard)
                assert TestGeneralPositionScan._message(pts, guard) == want, (pts, guard)
                outcomes.add(want is None or want.split()[-4])
        assert "cocircular" in outcomes and len(outcomes) > 1

    def test_straddling_keys_name_the_quadruple(self):
        pts = [(-1.0, 0.0), (1.0, 0.0), (0.1, 3e-6), (-0.2, -3e-6)]
        assert TestGeneralPositionScan._message(pts, 1e-6) == (
            "points 0, 1, 2, 3 are cocircular (within guard 1e-06)"
        )

    def test_few_quadruples_reach_the_exact_test(self, monkeypatch):
        tested = 0
        exact_test = geom_module._cocircular

        def counted(coords, sq, quads, guard):
            nonlocal tested
            tested += quads.shape[1]
            return exact_test(coords, sq, quads, guard)

        monkeypatch.setattr(geom_module, "_cocircular", counted)
        rng = random.Random(80)
        validate_general_position(PointSet([(rng.random(), rng.random()) for _ in range(80)]))
        assert tested <= 1000  # of C(80, 4) = 1,581,580


def _unit_scaled(pts, exponent=None):
    """pts times 2^exponent; by default the power of two that brings the
    largest |coordinate| into [1/2, 1)."""
    if exponent is None:
        exponent = -math.frexp(max(abs(v) for p in pts for v in p))[1]
    return [(math.ldexp(x, exponent), math.ldexp(y, exponent)) for x, y in pts]


class TestPowerOfTwoScale:
    """Scaling by a power of two is an exact similarity, so the verdict at
    2^-500 and 2^500, where unscaled determinants underflow or overflow, is
    the one at scale 1."""

    @pytest.mark.parametrize("exponent", [-500, 500])
    def test_verdict_of_scale_one(self, exponent):
        rng = random.Random(exponent)
        sets = [list(random_point_set(n, seed)) for n in (5, 8, 12) for seed in range(4)]
        sets += list(_jittered_circles(rng)) + list(_lattices(rng))
        outcomes = set()
        for pts in sets:
            for guard in (0.0, 1e-12, 1e-9, 1e-6):
                want = TestGeneralPositionScan._message(pts, guard)
                scaled = _unit_scaled(pts, exponent)
                assert TestGeneralPositionScan._message(scaled, guard) == want, (pts, guard)
                outcomes.add(want is None)
        assert outcomes == {True, False}


class TestGeneralPositionScan:
    """The streamed subset scan against the whole-list check it replaced."""

    @staticmethod
    def _message(pts, guard):
        try:
            validate_general_position(PointSet(pts), guard)
        except GeneralPositionViolated as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize(
        "family", [_random_sets, _lattices, _jittered_circles, _wheels, _with_midpoints]
    )
    def test_same_message_as_whole_list_oracle(self, family):
        outcomes = set()
        for pts in family(random.Random(family.__name__)):
            for guard in GP_GUARDS:
                want = general_position_message(PointSet(pts), guard)
                assert self._message(pts, guard) == want, (pts, guard)
                outcomes.add(want is None)
        assert outcomes == {True, False}  # both accepted and rejected sets

    def test_first_tuple_in_combinations_order(self):
        # 0-4 lie on the unit circle; (0, 3) is on the line through 1 and 3
        pts = [(1, 0), (0, 1), (-1, 0), (0, -1), (0.6, -0.8), (0, 3)]
        assert self._message(pts, 1e-12) == "points 1, 3, 5 are collinear (within guard 1e-12)"
        pts[5] = (3, 5)
        assert self._message(pts, 1e-12) == (
            "points 0, 1, 2, 3 are cocircular (within guard 1e-12)"
        )
        # no offending tuple has lowest index 0
        pts = pts[5:] + pts[:5]
        assert self._message(pts, 1e-12) == (
            "points 1, 2, 3, 4 are cocircular (within guard 1e-12)"
        )

    def test_first_tuple_from_a_later_block(self):
        # {3, 4, 5, 6} and {0, 1, 2, 9} are each exactly cocircular; the block
        # of highest index 6 is scanned first, but 0, 1, 2, 9 comes first
        pts = [(1, 0), (0, 1), (-1, 0), (4.375, 1.5), (3.5, 1.375), (3.625, 0.5), (4.625, 1)]
        pts += [(2.3, -1.7), (-0.6, 2.9), (0, -1)]
        want = "points 0, 1, 2, 9 are cocircular (within guard 1e-12)"
        assert general_position_message(PointSet(pts), 1e-12) == want
        assert self._message(pts, 1e-12) == want

    def test_triples_before_quadruples(self):
        # {0, 1, 2, 3} is cocircular, {4, 5, 6} collinear: the triple is named
        pts = [(1, 0), (0, 1), (-1, 0), (0, -1), (2.0, 3.2), (3.0, 3.7), (4.0, 4.2)]
        assert self._message(pts, 1e-12) == "points 4, 5, 6 are collinear (within guard 1e-12)"

    def test_memory_is_one_block(self):
        rng = random.Random(60)
        ps = PointSet([(rng.random(), rng.random()) for _ in range(60)])
        tracemalloc.start()
        try:
            validate_general_position(ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # the whole-list check peaked at 94 MiB

    def test_memory_at_120_points(self):
        rng = random.Random(120)
        ps = PointSet([(rng.random(), rng.random()) for _ in range(120)])
        tracemalloc.start()
        try:
            validate_general_position(ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize(
        "guard, want",
        [
            # every 60-point circle has a near-collinear triple at guard 0.1
            (0.1, "points 0, 1, 2 are collinear (within guard 0.1)"),
            # every triple passes and every quadruple offends
            (1e-3, "points 0, 1, 2, 3 are cocircular (within guard 0.001)"),
        ],
    )
    def test_rejection_memory_is_one_block(self, guard, want):
        pts = random_jittered_circle(random.Random(60), 60, 1e-6)
        tracemalloc.start()
        try:
            message = self._message(pts, guard)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert message == want
        assert peak < 32 * 2**20


class TestConvexHull:
    def test_p4_hull(self, p4):
        assert set(p4.hull()) == {0, 1, 2, 3}

    def test_interior_point_excluded(self):
        ps = PointSet([(0, 0), (4, 0), (2, 3), (2, 1)])
        assert set(ps.hull()) == {0, 1, 2}
