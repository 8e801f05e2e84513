"""Exception types shared across the package."""


class NearDelaunayError(ValueError):
    """Base class for all errors raised by this package."""


class DegenerateTriangle(NearDelaunayError):
    """Three collinear points were given where a proper triangle is required."""


class DegeneratePoints(NearDelaunayError):
    """Coincident points were given where distinct points are required."""


class NotAChord(NearDelaunayError):
    """A segment endpoint does not lie on the circle boundary."""


class GeneralPositionViolated(NearDelaunayError):
    """A point set has a (near-)collinear triple or (near-)cocircular quadruple."""


class InvalidConstraintEdges(NearDelaunayError):
    """Required edges cross each other or are otherwise unusable."""


class EnumerationTooLarge(NearDelaunayError):
    """The point set exceeds the configured enumeration cap."""


class MismatchedPointSets(NearDelaunayError):
    """Two triangulations over different point sets were combined."""


class SiteOutsideCircle(NearDelaunayError):
    """A site handed to the local diagram builder is not strictly inside the circle."""


class ParseError(NearDelaunayError):
    """A point or triangulation file does not match the expected grammar."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
