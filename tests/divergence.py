"""Constructed triangulation pairs on which one metric agrees and another differs.

Each builder returns (T, T_prime, element, metric_equal, metrics_differing)
where `element` is the decomposition element to score in both triangulations.
"""

from __future__ import annotations

import math

from neardelaunay.geom import PointSet
from neardelaunay.metrics import Evaluator
from neardelaunay.triangulation import Triangulation


def _diagonal_triangulation(ps: PointSet) -> Triangulation:
    return Triangulation(ps, [(0, 1, 2), (0, 1, 3)])


def _apex_height(target_angle: float) -> float:
    # apex (1, y) over edge (0,0)-(2,0) subtends arccos((y^2-1)/(y^2+1))
    c = math.cos(target_angle)
    return math.sqrt((1.0 + c) / (1.0 - c))


BASE = PointSet([(0, 0), (2, 0), (1, 0.5), (1, -0.5)])


def equal_opposing_angles_pair():
    """Same angle sum split symmetrically vs asymmetrically: the circumcenter
    separation and the cell overlap react, the angle sum does not."""
    gamma = math.acos(-0.6)
    y_p = 0.25
    gamma_p = math.acos((y_p**2 - 1.0) / (y_p**2 + 1.0))
    y_q = _apex_height(2.0 * gamma - gamma_p)
    skewed = PointSet([(0, 0), (2, 0), (1, y_p), (1, -y_q)])
    return (
        _diagonal_triangulation(BASE),
        _diagonal_triangulation(skewed),
        ("quad", (0, 1, 2, 3)),
        "opposing_angles",
        ("dual_edge_ratio", "dual_area_overlap"),
    )


def _slide_upper_apex() -> PointSet:
    # move the upper apex along its own circumcircle (center (1,-0.75), r=1.25)
    x = 1.6
    y = -0.75 + math.sqrt(1.25**2 - (x - 1.0) ** 2)
    return PointSet([(0, 0), (2, 0), (x, y), (1, -0.5)])


def equal_dual_edge_ratio_pair():
    """Slide an apex along its circumcircle: both circumcenters stay put, so
    the center distance is fixed while the overlap region changes shape."""
    return (
        _diagonal_triangulation(BASE),
        _diagonal_triangulation(_slide_upper_apex()),
        ("quad", (0, 1, 2, 3)),
        "dual_edge_ratio",
        ("dual_area_overlap",),
    )


def equal_lens_pair():
    """The same slide keeps every inscribed angle against the edge, hence the
    tangent angle, while the best covering empty circle changes."""
    return (
        _diagonal_triangulation(BASE),
        _diagonal_triangulation(_slide_upper_apex()),
        ("edge", (0, 1)),
        "lens",
        ("shrunk_circle",),
    )


def equal_triangular_lens_pair():
    """Move the blocking point along its arc: the arc (and its segment area)
    is unchanged, but the largest contained empty circle is not."""
    x = 1.4
    y = 0.75 - math.sqrt(1.25**2 - (x - 1.0) ** 2)
    moved = PointSet([(0, 0), (2, 0), (1, 0.5), (x, y)])
    return (
        _diagonal_triangulation(BASE),
        _diagonal_triangulation(moved),
        ("triangle", (0, 1, 2)),
        "triangular_lens",
        ("shrunk_circumcircle",),
    )


ALL_PAIRS = (
    equal_opposing_angles_pair,
    equal_dual_edge_ratio_pair,
    equal_lens_pair,
    equal_triangular_lens_pair,
)


def score_element(t: Triangulation, element, metric: str) -> float:
    """The metric's value of ``element``, a (kind, key) pair, in ``t``'s point set."""
    return Evaluator(t.point_set).element_value(metric, element[1])
