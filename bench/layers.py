"""Where the tracer hooks into hiveweb, and the per-layer metrics it yields.

Each entry names the attribute a caller looks up: ``cli`` calls
``hive_mod.validate_hive`` through the ``hiveweb.hive`` module, while
``web.hive_to_surface_web`` calls the name ``validate_hive`` imported into
``hiveweb.web``, so both are hooked under one span name.  ``thirds`` has no
call boundary visible from outside; its cost lands in the self time of the
``hive`` and ``web`` spans that do the arithmetic.
"""

from __future__ import annotations

import statistics

from hiveweb import cli, hive, metric, sampling, surface, surfacoid, web
from workloads import CliSurface, OracleNet


def _triangles(args, result):
    return len(args[0].triangles)


def _settled(args, result):
    return len(result)


def _net_vertices(args, result):
    return len(result.graph.vertices)


HOOKS = (
    (cli, "run", "cli", None),
    (surface.Triangulation, "from_json", "surface.from_json", None),
    (surface.Triangulation, "to_json", "surface.to_json", None),
    (surface, "validate_complex", "surface.validate_complex", None),
    (surface, "flip_triangulation", "surface.flip", None),
    (surface, "build_polygon", "surface.build_polygon", None),
    (hive, "validate_hive", "hive.validate", _triangles),
    (web, "validate_hive", "hive.validate", _triangles),
    (hive, "octahedron_transport", "hive.transport", None),
    (hive, "tropical_potential", "hive.potential", None),
    (hive, "is_in_positive_cone", "hive.cone", None),
    (hive, "hive_to_json", "hive.to_json", None),
    (web, "hive_to_surface_web", "web.hive_to_surface", _triangles),
    (web, "surface_web_to_hive", "web.surface_to_hive", _triangles),
    (web, "surface_web_to_json", "web.to_json", None),
    (web, "surface_web_from_json", "web.from_json", None),
    (sampling, "sample_hive", "sampling.sample", None),
    (metric, "distances_from", "metric.distances_from", _settled),
    (surfacoid, "distances_from", "metric.distances_from", _settled),
    (metric, "fermat_brute", "metric.fermat_brute", None),
    (surfacoid, "fermat_brute", "metric.fermat_brute", None),
    (metric, "gamma_window", "metric.gamma_window", None),
    (surfacoid, "build_net", "surfacoid.build_net", _net_vertices),
    (surfacoid, "oracle_triangle_hive", "surfacoid.oracle", None),
)

# every label of an operation that goes through the CLI, for cli.<label>.p50_ms
CLI_LABELS = CliSurface.labels + OracleNet.labels


def hook(tracer) -> None:
    for owner, attr, name, work in HOOKS:
        tracer.patch(owner, attr, name, work)


def _per_unit(seconds: float, units: int) -> float:
    return seconds / units * 1e6 if units else 0.0


def metrics(spans: dict, setup_spans: dict, cli_ms: dict) -> dict[str, float]:
    """Per-layer metrics from span summaries of the traced pass (``spans``)
    and of set-up (``setup_spans``); ``cli_ms`` maps each CLI label to the
    durations of its ``cli`` spans in milliseconds."""

    def get(name, field, summary=spans):
        entry = summary.get(name)
        return entry[field] if entry else 0

    out = {"cli.self_s": get("cli", "busy_s")}
    for label in CLI_LABELS:
        out[f"cli.{label}.p50_ms"] = statistics.median(cli_ms[label]) if cli_ms.get(label) else 0.0
    for name in ("surface.from_json", "surface.to_json", "surface.validate_complex",
                 "surface.flip", "hive.validate", "hive.transport", "hive.potential",
                 "hive.cone", "hive.to_json", "web.hive_to_surface", "web.surface_to_hive",
                 "web.to_json", "web.from_json", "sampling.sample",
                 "metric.distances_from", "metric.fermat_brute", "metric.gamma_window",
                 "surfacoid.build_net", "surfacoid.oracle"):
        out[f"{name}.busy_s"] = get(name, "busy_s")
    for name in ("surface.flip", "hive.validate", "sampling.sample", "metric.distances_from"):
        out[f"{name}.calls"] = get(name, "calls")
    out["surface.build_polygon.busy_s"] = get("surface.build_polygon", "busy_s", setup_spans)
    out["sampling.first_call_s"] = get("sampling.sample", "first_s", setup_spans) or 0.0
    out["sampling.failed"] = get("sampling.sample", "failed")
    out["hive.validate.us_per_triangle"] = _per_unit(
        get("hive.validate", "busy_s"), get("hive.validate", "work"))
    out["web.us_per_triangle"] = _per_unit(
        get("web.hive_to_surface", "busy_s") + get("web.surface_to_hive", "busy_s"),
        get("web.hive_to_surface", "work") + get("web.surface_to_hive", "work"))
    out["metric.vertices_settled"] = get("metric.distances_from", "work")
    out["surfacoid.net_vertices"] = get("surfacoid.build_net", "work")
    return out
