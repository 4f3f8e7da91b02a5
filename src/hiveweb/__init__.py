"""Exact-arithmetic calculus for SL3 webs and hives on triangulated surfaces."""

from .errors import (
    GluingMismatch,
    HivewebError,
    IncompleteHive,
    InconsistentSide,
    InvalidHive,
    InvalidPolygonTriangulation,
    InvalidTriangulation,
    InvalidWebCoords,
    NotFlippable,
    OmegaEmpty,
    SamplingFailed,
    SelfFoldedUnsupported,
    Unreachable,
)
from .hive import (
    is_in_positive_cone,
    octahedron_transport,
    rhombi,
    tropical_potential,
    validate_hive,
)
from .metric import (
    OrientedGraph,
    fermat_brute,
    fermat_closed_form,
    gamma_distance,
    gamma_window,
    shortest_distance,
)
from .sampling import sample_hive
from .surface import (
    ThetaVertex,
    Triangulation,
    build_polygon,
    flip_triangulation,
    quad_frame,
    validate_complex,
)
from .surfacoid import build_net, oracle_triangle_hive
from .thirds import Third
from .web import (
    HiveValues,
    SurfaceWeb,
    hive_to_surface_web,
    hive_to_web_triangle,
    side_arc_counts,
    surface_web_to_hive,
    web_to_hive_thirds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
