import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from neardelaunay.geom import PointSet


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
