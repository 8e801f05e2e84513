import random

import pytest

import neardelaunay.pointgen as pointgen_module
from neardelaunay.delaunay import delaunay
from neardelaunay.errors import GeneralPositionViolated
from neardelaunay.geom import is_general_position
from neardelaunay.pointgen import (
    long_delaunay_point_set,
    pick_required_edge,
    random_point_set,
    wheel_point_set,
)
from neardelaunay.triangulation import (
    enumerate_triangulations,
    max_degree,
    total_edge_length,
)


def _spec_sets(spec_seed):
    """The (n, seed) pairs of experiment.make_default_spec(spec_seed)."""
    return [(10, spec_seed + 1 + k) for k in range(8)]


def _metrics_sweep_seeds():
    rng = random.Random(5)  # as in test_metrics' grid comparison
    return [(n, rng.randrange(10**6)) for n in (7, 8, 9, 10)]


# Every (n, seed, guard) that the tests, the default experiment grid and the
# benchmark (spec seeds 1000 p at its golden seed 0) pass to
# random_point_set.
DRAWN_SETS = [
    (n, seed, 1e-9)
    for n, seed in [
        *[(n, s) for n in (3, 4, 5, 6, 7, 8, 9) for s in range(10)],
        *[(10, s) for s in range(100)],
        *[(n, s) for n in (11, 12) for s in range(10)],
        *[(15, s) for s in range(20)],
        *[(n, seed) for n in range(4, 11) for seed in (300 + n, 400 + n)],
        *[(n, 1100 + 20 * s + n) for n in range(4, 10) for s in range(2)],
        *[(n, 1100 + n) for n in range(3, 13)],
        *[(n, 1300 + n) for n in range(6, 12)],
        *[(n, 1500 + n) for n in range(8, 13)],
        *[(n, 2100 + n) for n in (8, 10, 12, 16, 20, 30)],
        *[(n, 900 + n) for n in range(4, 81)],
        *[(n, 930 + n) for n in (5, 12, 30)],
        *[(8, s) for s in (*range(50), 12, 17, 44, 63, 81, 93, 300, 808, 809, 2400)],
        *[(8, 600 + s) for s in range(5)],
        *[(8, 700 + s) for s in range(5)],
        *[(7, s) for s in (11, 31, 61, 62, 71, 72)],
        *[(6, s) for s in (23, 51, 52, 53, 61)],
        *[(9, s) for s in (10, 13, 77, 92, 123)],
        *[(10, s) for s in (20, 21, 30, 31, 32, 40, 55, 90, 91, 100)],
        *[(12, s) for s in (42, 1201, 1202, 1203, 1400, 2300)],
        (8, 82), (13, 0), (13, 3), (20, 64), (40, 2140),
        *_metrics_sweep_seeds(),
        *[pair for spec_seed in (0, 1, 3, 7) for pair in _spec_sets(spec_seed)],
        *[pair for p in range(40) for pair in _spec_sets(1000 * p)],
        # spec examples in the CLI tests
        (7, 3), (6, 9),
    ]
] + [(8, 400 + s, 1e-4) for s in range(5)] + [(8, 2, 1e-4), (8, 94, 1e-5)]


class TestRandomPointSet:
    def test_deterministic(self):
        assert random_point_set(8, seed=1).points == random_point_set(8, seed=1).points

    def test_margin_guard(self):
        ps = random_point_set(8, seed=2, guard=1e-4)
        assert is_general_position(ps, 1e-4)

    def test_drawn_sets_within_the_draw_bound(self, monkeypatch):
        draws = 0

        def counted(ps, guard):
            nonlocal draws
            draws += 1
            return is_general_position(ps, guard)

        monkeypatch.setattr(pointgen_module, "is_general_position", counted)
        most = 0
        for n, seed, guard in DRAWN_SETS:
            draws = 0
            random_point_set(n, seed, guard)
            most = max(most, draws)
        assert most <= pointgen_module._MAX_DRAWS

    def test_gives_up_after_the_draw_bound(self, monkeypatch):
        class Runaway(Exception):
            pass

        calls, calls_allowed = 0, pointgen_module._MAX_DRAWS

        def never(ps, guard):
            nonlocal calls
            calls += 1
            if calls > calls_allowed:
                raise Runaway  # an unbounded loop fails here instead of hanging
            return False

        monkeypatch.setattr(pointgen_module, "is_general_position", never)
        message = rf"6 points \(seed 4\): no draw of {calls_allowed} passed at guard 1e-09"
        with pytest.raises(GeneralPositionViolated, match=message):
            random_point_set(6, 4)
        assert calls == calls_allowed


class TestWheel:
    @pytest.mark.parametrize("n_rim", [6, 8, 9, 12])
    def test_star_delaunay_any_rim_count(self, n_rim):
        # even rim counts are the trap: opposite rim points must not line up
        # with the hub, which radial jitter alone cannot prevent
        w = wheel_point_set(n_rim)
        dt = delaunay(w)
        assert all(0 in tri for tri in dt.triangles)
        assert max_degree(dt) == n_rim


class TestLongDelaunayFixture:
    def test_much_shorter_triangulation_exists(self):
        ps = long_delaunay_point_set()
        dt_length = total_edge_length(delaunay(ps))
        shortest = min(
            total_edge_length(t) for t in enumerate_triangulations(ps)
        )
        assert shortest <= 0.7 * dt_length


class TestRequiredEdgePicker:
    def test_picked_edge_is_interesting(self):
        for seed in (1, 2, 3):
            ps = random_point_set(10, seed=seed)
            edge = pick_required_edge(ps)
            dt = delaunay(ps)
            hull = set(ps.hull())
            assert not dt.has_edge(*edge)
            assert not (edge[0] in hull and edge[1] in hull)
