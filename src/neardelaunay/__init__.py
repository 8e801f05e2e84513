"""Measure how close a planar triangulation is to the Delaunay triangulation,
and find the most Delaunay-like triangulation under constraints."""

from .aggregate import (
    AggregationMode,
    Comparison,
    ScoreVector,
    aggregate_sum,
    compare_bottleneck_lex,
    optimize,
)
from .delaunay import VoronoiDiagram, VoronoiEdge, VoronoiVertex, cdt, delaunay, voronoi
from .errors import (
    DegeneratePoints,
    DegenerateTriangle,
    EnumerationTooLarge,
    GeneralPositionViolated,
    IncomparableScores,
    InvalidConstraintEdges,
    InvalidScale,
    MismatchedPointSets,
    NearDelaunayError,
    NotAChord,
    ParseError,
    SiteOutsideCircle,
)
from .fileio import parse_points, parse_triangulation, write_points, write_triangulation
from .geom import (
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
    convex_hull,
    in_circumcircle,
    inscribed_circle,
    is_general_position,
    orientation,
    similarity_transform,
    validate_general_position,
)
from .metrics import (
    ALL_METRICS,
    EDGE_METRICS,
    PERFECT_VALUE,
    QUADRILATERAL_METRICS,
    TRIANGLE_METRICS,
    ElementScore,
    Evaluator,
    LocalVoronoiDiagram,
    ScoreOrientation,
    evaluate,
    local_voronoi,
)
from .pointgen import (
    long_delaunay_point_set,
    pick_required_edge,
    random_point_set,
    wheel_point_set,
)
from .svg import render_svg
from .triangulation import (
    Constraint,
    MaxDegree,
    MaxTotalLength,
    MinTotalLength,
    Quadrilateral,
    RequiredEdges,
    Triangulation,
    edge_diff,
    enumerate_triangulations,
    interior_quadrilaterals,
    max_degree,
    satisfies,
    total_edge_length,
    validate,
)

__version__ = "0.1.0"
