"""Asymmetric intersection metric on finite oriented graphs.

Traversing an arc with its direction costs 1/3, against it 2/3.  Distances are
computed by Dijkstra on the doubled arc set with integer weights 1 and 2 in
third units, on plain ints indexed by vertex position; only the results the
API returns are wrapped as exact :class:`~hiveweb.thirds.Third` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from .errors import OmegaEmpty, Unreachable
from .thirds import LatticePoint, Third

Vertex = Hashable


class OrientedGraph:
    """Finite directed multigraph; immutable once built."""

    def __init__(self, vertices: Iterable[Vertex], arcs: Iterable[tuple[Vertex, Vertex]]):
        self.vertices = list(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.arcs = list(arcs)
        # by position: _fwd[i] are the heads of arcs out of i (1 third each),
        # _back[j] the tails of arcs into j (2 thirds each)
        index = self._index
        fwd: list[list[int]] = [[] for _ in self.vertices]
        back: list[list[int]] = [[] for _ in self.vertices]
        for tail, head in self.arcs:
            i, j = index.get(tail), index.get(head)
            if i is None or j is None:
                raise ValueError(f"arc ({tail!r}, {head!r}) has an unknown endpoint")
            fwd[i].append(j)
            back[j].append(i)
        self._fwd, self._back = fwd, back

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "arcs": [[t, h] for t, h in self.arcs]}

    @classmethod
    def from_json(cls, obj: dict) -> "OrientedGraph":
        return cls(obj["vertices"], [tuple(arc) for arc in obj["arcs"]])


def _thirds_from(graph: OrientedGraph, source: Vertex) -> list[int | None]:
    """Distances in thirds from ``source``, by vertex position (None where
    unreachable).

    The weights are only 1 and 2, so Dijkstra runs on Dial's bucket queue:
    ``buckets[d]`` lists the vertices reached at distance ``d``, and an entry
    whose vertex was since reached closer is skipped.  Each vertex is settled
    once, so the search is O(V + E).
    """
    s = graph._index.get(source)
    if s is None:
        raise KeyError(f"unknown vertex {source!r}")
    fwd, back = graph._fwd, graph._back
    dist: list[int | None] = [None] * len(graph.vertices)
    dist[s] = 0
    buckets: list[list[int]] = [[s], [], []]
    d = 0
    while any(buckets[d:]):
        one, two = d + 1, d + 2
        near, far = buckets[one], buckets[two]
        for u in buckets[d]:
            if dist[u] != d:
                continue
            for v in fwd[u]:
                dv = dist[v]
                if dv is None or one < dv:
                    dist[v] = one
                    near.append(v)
            for v in back[u]:
                dv = dist[v]
                if dv is None or two < dv:
                    dist[v] = two
                    far.append(v)
        buckets.append([])
        d += 1
    return dist


def _tripod(
    da: list[int | None], db: list[int | None], dc: list[int | None]
) -> tuple[int | None, list[int]]:
    """Minimum of da + db + dc over the positions reachable in all three,
    with the positions attaining it (None and [] if there are none)."""
    best: int | None = None
    argmin: list[int] = []
    for i, (x, y, z) in enumerate(zip(da, db, dc)):
        if x is None or y is None or z is None:
            continue
        total = x + y + z
        if best is None or total < best:
            best = total
            argmin = [i]
        elif total == best:
            argmin.append(i)
    return best, argmin


def distances_from(graph: OrientedGraph, source: Vertex) -> dict[Vertex, Third]:
    """Exact distances from ``source`` to every reachable vertex."""
    dist = _thirds_from(graph, source)
    return {v: Third(d) for v, d in zip(graph.vertices, dist) if d is not None}


def shortest_distance(graph: OrientedGraph, s: Vertex, t: Vertex) -> Third:
    """Minimum 1/3-2/3 path length from ``s`` to ``t``."""
    if t not in graph:
        raise KeyError(f"unknown vertex {t!r}")
    d = _thirds_from(graph, s)[graph._index[t]]
    if d is None:
        raise Unreachable(f"no path from {s!r} to {t!r}")
    return Third(d)


def gamma_distance(p: LatticePoint) -> Third:
    """Closed-form distance from the origin to ``p`` on the infinite lattice graph."""
    return Third(max(p.x + p.y, p.y - 2 * p.x, p.x - 2 * p.y))


def gamma_window(radius: int) -> OrientedGraph:
    """Induced subgraph of the lattice graph on the square [-radius, radius]^2.

    Vertices are keyed by :meth:`LatticePoint.key` strings; every vertex sends
    arcs to (x+1,y), (x,y+1) and (x-1,y-1) when those stay inside the window.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    span = range(-radius, radius + 1)
    keys = {(x, y): f"{x},{y}" for x in span for y in span}
    arcs = []
    for (x, y), src in keys.items():
        for dx, dy in ((1, 0), (0, 1), (-1, -1)):
            dst = keys.get((x + dx, y + dy))
            if dst is not None:
                arcs.append((src, dst))
    return OrientedGraph(list(keys.values()), arcs)


@dataclass(frozen=True)
class FermatSpec:
    """Corner points for the tripod minimum, in the fixed role layout:
    ``a`` lower-left, ``b`` lower-right, ``c`` upper.  Permuted roles must be
    rotated into this layout by the caller."""

    a: LatticePoint
    b: LatticePoint
    c: LatticePoint


def _omega_bounds(spec: FermatSpec) -> tuple[int, int, int, int, int, int]:
    return (
        spec.a.x, spec.b.x,            # a1 <= x <= b1
        spec.a.y, spec.c.y,            # a2 <= y <= c2
        spec.b.y - spec.b.x,           # b2-b1 <= y-x
        spec.c.y - spec.c.x,           # y-x <= c2-c1
    )


def omega_is_empty(spec: FermatSpec) -> bool:
    xlo, xhi, ylo, yhi, dlo, dhi = _omega_bounds(spec)
    if xlo > xhi or ylo > yhi or dlo > dhi:
        return True
    # the band y-x in [dlo, dhi] must meet the box's diagonal range
    return dlo > yhi - xlo or dhi < ylo - xhi


def fermat_closed_form(spec: FermatSpec) -> Third:
    """Minimum of d(a,X)+d(b,X)+d(c,X) over the lattice, when the minimizer
    region is nonempty."""
    if omega_is_empty(spec):
        raise OmegaEmpty(f"empty minimizer region for {spec}")
    value = -spec.a.x - spec.a.y + 2 * spec.b.x - spec.b.y - spec.c.x + 2 * spec.c.y
    return Third(value)


def omega_points(spec: FermatSpec, radius: int) -> set[LatticePoint]:
    """Integer points of the minimizer region inside [-radius, radius]^2."""
    xlo, xhi, ylo, yhi, dlo, dhi = _omega_bounds(spec)
    points = set()
    for x in range(max(xlo, -radius), min(xhi, radius) + 1):
        for y in range(max(ylo, -radius), min(yhi, radius) + 1):
            if dlo <= y - x <= dhi:
                points.add(LatticePoint(x, y))
    return points


def fermat_brute(
    graph: OrientedGraph, a: Vertex, b: Vertex, c: Vertex
) -> tuple[Third, set[Vertex]]:
    """Exact minimum of the three-distance sum over all vertices, with the
    full argmin set."""
    best, argmin = _tripod(*(_thirds_from(graph, v) for v in (a, b, c)))
    if best is None:
        raise Unreachable(f"no vertex reachable from all of {a!r}, {b!r}, {c!r}")
    return Third(best), {graph.vertices[i] for i in argmin}
