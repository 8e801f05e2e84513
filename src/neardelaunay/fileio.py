"""Text grammars for point sets and triangulations.

Point file: first line the count n >= 3, then n lines of two decimals.
Triangulation file: the same point block followed by one line per triangle
with three ascending 0-based indices, triangles in canonical order.
Coordinates are written with 12 significant digits, which round-trips
exactly for values given to that precision.
"""

from __future__ import annotations

from .errors import ParseError
from .geom import PointSet, validate_general_position
from .triangulation import Triangulation


def fmt_coord(v: float) -> str:
    return format(v, ".12g")


def parse_points(text: str) -> PointSet:
    """Parse a point file and validate general position."""
    lines = text.splitlines()
    pts, _ = _parse_point_block(lines)
    ps = PointSet(pts)
    validate_general_position(ps)
    return ps


def _parse_point_block(lines: list[str]) -> tuple[list[tuple[float, float]], int]:
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ParseError(1, "empty file")
    try:
        n = int(lines[idx].strip())
    except ValueError:
        raise ParseError(idx + 1, f"expected point count, got {lines[idx]!r}") from None
    if n < 3:
        raise ParseError(idx + 1, f"need at least 3 points, got {n}")
    pts = []
    line_no = idx + 1
    for _ in range(n):
        if line_no >= len(lines):
            raise ParseError(line_no + 1, f"expected {n} points, file ended early")
        parts = lines[line_no].split()
        if len(parts) != 2:
            raise ParseError(line_no + 1, f"expected two coordinates, got {lines[line_no]!r}")
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError(line_no + 1, f"bad coordinate in {lines[line_no]!r}") from None
        line_no += 1
    return pts, line_no


def write_points(ps: PointSet) -> str:
    out = [str(len(ps))]
    out.extend(f"{fmt_coord(p.x)} {fmt_coord(p.y)}" for p in ps)
    return "\n".join(out) + "\n"


def _coords_close(pts, ps: PointSet) -> bool:
    span = max(
        max(abs(p.x) for p in ps), max(abs(p.y) for p in ps), 1.0
    )
    tol = 1e-9 * span
    return all(
        abs(a[0] - b.x) <= tol and abs(a[1] - b.y) <= tol
        for a, b in zip(pts, ps.points)
    )


def parse_triangulation(text: str, point_set: PointSet | None = None) -> Triangulation:
    """Parse a triangulation file.

    When `point_set` is given, the file's embedded points must agree with it
    (within formatting precision) and the given set is used, preserving full
    precision.
    """
    lines = text.splitlines()
    pts, line_no = _parse_point_block(lines)
    if point_set is not None:
        if len(pts) != len(point_set) or not _coords_close(pts, point_set):
            raise ParseError(2, "embedded points do not match the point file")
        ps = point_set
    else:
        ps = PointSet(pts)
    triangles = []
    for raw in lines[line_no:]:
        if not raw.strip():
            line_no += 1
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise ParseError(line_no + 1, f"expected three indices, got {raw!r}")
        try:
            tri = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(line_no + 1, f"bad index in {raw!r}") from None
        if any(i < 0 or i >= len(ps) for i in tri) or len(set(tri)) != 3:
            raise ParseError(line_no + 1, f"invalid triangle {tri}")
        triangles.append(tri)
        line_no += 1
    if not triangles:
        raise ParseError(line_no + 1, "no triangles in file")
    return Triangulation(ps, triangles)


def write_triangulation(t: Triangulation) -> str:
    out = [write_points(t.point_set).rstrip("\n")]
    out.extend(f"{i} {j} {k}" for i, j, k in t.triangles)
    return "\n".join(out) + "\n"
