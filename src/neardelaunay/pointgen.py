"""Seeded random point sets and the two constructed experiment fixtures."""

from __future__ import annotations

import math
import random

from .delaunay import delaunay
from .geom import PointSet, dist_point_segment, is_general_position
from .triangulation import EdgeKey


def random_point_set(n: int, seed: int, guard: float = 1e-9) -> PointSet:
    """Uniform points in the unit square, rejection-sampled until the
    general-position validation passes with the requested margin."""
    rng = random.Random(seed)
    while True:
        ps = PointSet(
            [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(n)]
        )
        if is_general_position(ps, guard):
            return ps


def wheel_point_set(n_rim: int = 9) -> PointSet:
    """A hub joined to a near-circular rim: the Delaunay triangulation is the
    star from the hub, whose degree exceeds any small degree bound.

    Radii and angles are jittered deterministically: radial jitter keeps the
    rim off a common circle, angular jitter keeps opposite rim points (even
    rim counts) off a common line through the hub.
    """
    pts = [(0.0, 0.0)]
    for k in range(n_rim):
        ang = 2.0 * math.pi * k / n_rim + 0.1 + 0.02 * math.sin(2.7 * k + 1.3)
        r = 1.0 + 0.012 * math.sin(3.1 * k + 0.7) + 0.003 * k
        pts.append((r * math.cos(ang), r * math.sin(ang)))
    ps = PointSet(pts)
    if not is_general_position(ps, 1e-9):
        raise AssertionError("wheel fixture lost general position")
    return ps


def long_delaunay_point_set(n_arc: int = 9) -> PointSet:
    """A tight arc of points with its (near) center far away.

    The center point's cell touches every arc point's cell, so the Delaunay
    triangulation is the long star from the center; fanning across the arc
    instead is much shorter, leaving room under a 0.8x length bound.
    """
    radius = 10.0
    pts = [(0.0, 0.0)]
    lo, hi = math.radians(72.0), math.radians(108.0)
    for k in range(n_arc):
        ang = lo + (hi - lo) * k / (n_arc - 1)
        r = radius * (1.0 + 0.004 * math.sin(2.3 * k + 0.4) + 0.001 * k)
        pts.append((r * math.cos(ang), r * math.sin(ang)))
    ps = PointSet(pts)
    if not is_general_position(ps, 1e-9):
        raise AssertionError("long-Delaunay fixture lost general position")
    return ps


def pick_required_edge(ps: PointSet) -> EdgeKey | None:
    """A deterministic 'interesting' constraint edge for a point set: not a
    Delaunay edge, not joining two hull vertices, passing close to some
    other point (closeness relative to the edge length)."""
    dt = delaunay(ps)
    hull = set(ps.hull())
    pts = ps.points
    best = None
    best_score = math.inf
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if dt.has_edge(i, j) or (i in hull and j in hull):
                continue
            a, b = pts[i], pts[j]
            length = math.dist(a, b)
            clearance = min(
                dist_point_segment(pts[k], a, b)
                for k in range(len(ps))
                if k not in (i, j)
            )
            score = clearance / length
            if score < best_score:
                best_score, best = score, (i, j)
    if best is not None:
        return best
    for i in range(len(ps)):  # fall back to any non-Delaunay pair
        for j in range(i + 1, len(ps)):
            if not dt.has_edge(i, j):
                return (i, j)
    return None
