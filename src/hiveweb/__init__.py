"""Exact-arithmetic calculus for SL3 webs and hives on triangulated surfaces.

Each export is imported from its submodule when it is first read (PEP 562),
so ``python -m hiveweb`` loads only the submodules its command runs.
"""

# each submodule and the names the package exports from it
_EXPORTS = {
    "errors": ("GluingMismatch", "HivewebError", "IncompleteHive", "InconsistentSide",
               "InvalidHive", "InvalidPolygonTriangulation", "InvalidTriangulation",
               "InvalidWebCoords", "NotFlippable", "OmegaEmpty", "SamplingFailed",
               "SelfFoldedUnsupported", "Unreachable"),
    "hive": ("is_in_positive_cone", "octahedron_transport", "rhombi", "tropical_potential",
             "validate_hive"),
    "metric": ("OrientedGraph", "fermat_brute", "fermat_closed_form", "gamma_distance",
               "gamma_window", "shortest_distance"),
    "sampling": ("sample_hive",),
    "surface": ("ThetaVertex", "Triangulation", "build_polygon", "flip_triangulation",
                "quad_frame", "validate_complex"),
    "surfacoid": ("build_net", "oracle_triangle_hive"),
    "thirds": ("Third",),
    "web": ("HiveValues", "SurfaceWeb", "hive_to_surface_web", "hive_to_web_triangle",
            "side_arc_counts", "surface_web_to_hive", "web_to_hive_thirds"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# the exports and the submodules that hold them
__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _OWNER and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_OWNER.get(name, name)}")
    value = getattr(module, name) if name in _OWNER else module
    globals()[name] = value  # later reads find it without this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
