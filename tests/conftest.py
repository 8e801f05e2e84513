import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from neardelaunay.geom import PointSet, is_general_position, similarity_transform
from neardelaunay.pointgen import random_point_set


@pytest.fixture
def p4() -> PointSet:
    """Convex quadrilateral whose long diagonal is the bad one: both opposing
    vertices spoil the other triangle's circumcircle."""
    return PointSet([(0, 0), (2, 0), (1, 0.5), (1, -0.5)])


def jittered_circle_points(n: int, base_radius: float = 1.0) -> PointSet:
    """n points in convex position, radii jittered so no four are cocircular."""
    pts = []
    for k in range(n):
        ang = 2.0 * math.pi * k / n + 0.05
        r = base_radius * (1.0 + 0.01 * math.sin(7.0 * k + 1.0))
        pts.append((r * math.cos(ang), r * math.sin(ang)))
    return PointSet(pts)


def random_jittered_circle(rng, n: int, jitter: float) -> list[tuple[float, float]]:
    """n points near the unit circle: angles moved by up to 0.3 of their
    spacing and radii by up to `jitter`, drawn from `rng`."""
    pts = []
    for k in range(n):
        ang = 2.0 * math.pi * (k + rng.uniform(-0.3, 0.3)) / n
        r = 1.0 + jitter * rng.uniform(-1, 1)
        pts.append((r * math.cos(ang), r * math.sin(ang)))
    return pts


def validated_edge_sets() -> list[PointSet]:
    """Sets of 5 to 9 points that pass validation, many of them near its
    limits: circles jittered by 1e-3 to 1e-11, random sets offset by up to
    1e7 or scaled by 2^-40 and 2^40, and points up to 1e-6 off a line."""
    rng = random.Random(2900)
    sets = []
    for n in (5, 7, 8, 9):
        for jitter in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11):
            sets += [random_jittered_circle(rng, n, jitter) for _ in range(3)]
        for seed in range(3):
            pts = random_point_set(n, seed=3000 + seed).points
            sets += [[(x + t, y - t) for x, y in pts] for t in (1e3, 1e5, 1e7)]
            for e in (-40, 40):
                for base in (pts, random_jittered_circle(rng, n, 1e-9)):
                    sets.append([(math.ldexp(x, e), math.ldexp(y, e)) for x, y in base])
            for h in (1e-2, 1e-4, 1e-6):
                xs = [rng.random() for _ in range(n)]
                sets.append([(x, 0.3 * x + h * rng.uniform(-1, 1)) for x in xs])
    return [ps for ps in map(PointSet, sets) if is_general_position(ps)]


def _near_line(offset):
    """Seven points on a line, 0.1 apart in x, and one midway between two
    of them, about `offset` of that spacing off the line."""
    on_line = [(0.1 * i + 0.05, 0.37 * (0.1 * i) + 0.2) for i in range(7)]
    return on_line + [(0.4, 0.37 * 0.35 + 0.2 + 0.1 * offset)]


# Sets for the predicate tests, by family: random, offset by 1e6 and 1e7,
# circles jittered by 1e-12 to 1e-6, points near a line, exact grids and a
# set scaled by 1e200, whose products overflow.
PREDICATE_SETS = {
    **{f"random{n}": lambda n=n: random_point_set(n, seed=2600 + n).points for n in (4, 7, 10)},
    **{
        f"offset{t:g}": lambda t=t: [(x + t, y + t) for x, y in random_point_set(9, seed=2700)]
        for t in (1e6, 1e7)
    },
    **{
        f"circle{j:g}": lambda j=j: random_jittered_circle(random.Random(f"{j}"), 10, j)
        for j in (1e-12, 1e-10, 1e-8, 1e-6)
    },
    **{f"line{j:g}": lambda j=j: _near_line(j) for j in (1e-10, 1e-8, 1e-6)},
    # exact collinear triples and exact cocircular quadruples
    "grid3x3": lambda: [(x, y) for x in range(3) for y in range(3)],
    "grid4x2": lambda: [(2 * x - 3, y) for x in range(4) for y in range(2)],
    # products overflow to inf, and det to inf - inf = NaN
    "overflow1e200": lambda: similarity_transform(
        random_point_set(9, seed=2800), scale=1e200
    ).points,
}
