"""hypothesis strategies: small point sets near the limits of validation.

Four families of 5 to 8 points, each kept only when it passes
``is_general_position`` at the default guard:

* uniform draws in the unit square;
* points near the unit circle, radii jittered by 1e-12 to 1e-3;
* uniform draws plus one point between two of them, off their line by
  1e-10 to 1e-6 of their spacing;
* a set of one of the families above scaled by 2^40 or 2^-40, exactly.

``search_queries`` draws one of these sets with a sequence of optimizer
queries on it: a metric, a mode and a constraint of each kind.
"""

import math

from hypothesis import strategies as st

from neardelaunay.aggregate import AggregationMode
from neardelaunay.errors import NearDelaunayError
from neardelaunay.geom import PointSet, is_general_position
from neardelaunay.metrics import ALL_METRICS
from neardelaunay.triangulation import MaxDegree, MaxTotalLength, MinTotalLength, RequiredEdges

SIZES = st.integers(5, 8)
_UNIT = st.floats(0.0, 1.0)


def _decade(lo: int, hi: int):
    """10**k for k drawn uniformly from [lo, hi]."""
    return st.floats(lo, hi).map(lambda k: 10.0**k)


@st.composite
def uniform_points(draw, n=None):
    n = draw(SIZES) if n is None else n
    return [(draw(_UNIT), draw(_UNIT)) for _ in range(n)]


@st.composite
def jittered_circle_points(draw):
    n, jitter = draw(SIZES), draw(_decade(-12, -3))
    pts = []
    for k in range(n):
        ang = 2.0 * math.pi * (k + draw(st.floats(-0.3, 0.3))) / n
        r = 1.0 + jitter * draw(st.floats(-1.0, 1.0))
        pts.append((r * math.cos(ang), r * math.sin(ang)))
    return pts


@st.composite
def near_line_points(draw):
    pts = draw(uniform_points(draw(SIZES) - 1))
    i, j = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2, unique=True))
    (ax, ay), (bx, by) = pts[i], pts[j]
    t, off = draw(st.floats(0.1, 0.9)), draw(_decade(-10, -6)) * draw(st.sampled_from([-1, 1]))
    # off * |ab| along the normal (-(by - ay), bx - ax), whose length is |ab|
    pts.append((ax + t * (bx - ax) - off * (by - ay), ay + t * (by - ay) + off * (bx - ax)))
    return pts


@st.composite
def scaled_points(draw):
    pts = draw(st.one_of(uniform_points(), jittered_circle_points(), near_line_points()))
    e = draw(st.sampled_from([-40, 40]))
    return [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in pts]


def _point_set(pts):
    """The PointSet of pts when it is one in general position, else None."""
    try:
        ps = PointSet(pts)
    except NearDelaunayError:  # duplicate points
        return None
    return ps if is_general_position(ps) else None


def point_sets():
    """PointSets of 5 to 8 points from the four families, in general position."""
    families = st.one_of(
        uniform_points(), jittered_circle_points(), near_line_points(), scaled_points()
    )
    return families.map(_point_set).filter(lambda ps: ps is not None)


@st.composite
def constraints(draw, n: int):
    """One constraint of each kind over n points; a required edge joins two
    of them."""
    kind = draw(st.sampled_from(["required", "min_length", "max_length", "degree"]))
    if kind == "required":
        ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        return RequiredEdges([draw(ends)])
    if kind == "min_length":
        return MinTotalLength(draw(st.floats(1.0, 1.3)))
    if kind == "max_length":
        return MaxTotalLength(draw(st.floats(0.8, 1.0)))
    return MaxDegree(draw(st.integers(3, 6)))


@st.composite
def search_queries(draw):
    """A point set of :func:`point_sets` and 2 to 8 (constraint, metric,
    mode) queries on it."""
    ps = draw(point_sets())
    query = st.tuples(
        constraints(len(ps)), st.sampled_from(ALL_METRICS), st.sampled_from(list(AggregationMode))
    )
    return ps, draw(st.lists(query, min_size=2, max_size=8))
