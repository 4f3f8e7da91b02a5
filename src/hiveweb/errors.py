"""Exception types shared across the package."""


class HivewebError(Exception):
    """Base class for all domain errors raised by hiveweb."""


class MalformedInput(ValueError):
    """Input of the wrong shape or type; the command line exits 2 for it."""


class InvalidPolygonTriangulation(HivewebError):
    """Diagonal set does not triangulate the polygon (crossing, duplicate, wrong count)."""


class InvalidTriangulation(HivewebError):
    """Operation requires a structurally valid triangulation and got an invalid one."""


class NotFlippable(HivewebError):
    """Requested flip at a boundary edge."""


class SelfFoldedUnsupported(HivewebError):
    """Flip would involve a self-glued triangle or a degenerate quadrilateral."""


class IncompleteHive(HivewebError):
    """A hive value map is missing one or more quiver vertices."""


class InvalidHive(HivewebError):
    """Input fails the rhombus conditions where validity is a precondition."""


class InvalidWebCoords(HivewebError):
    """Corner-arc counts must be non-negative integers."""


class InconsistentSide(HivewebError):
    """Side values do not give non-negative integer strand counts."""


class GluingMismatch(HivewebError):
    """Adjacent triangles disagree on the strand counts through a shared edge."""


class Unreachable(HivewebError):
    """No path exists between the requested vertices."""


class OmegaEmpty(HivewebError):
    """The tripod minimizer region is empty for the given corner points."""


class SamplingFailed(HivewebError):
    """No triangle coordinates in the sampling box satisfy the fixed edge values."""
