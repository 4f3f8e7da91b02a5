"""Dual nets of triangle webs and the distance-based coordinate oracle.

The dual graph of a reduced triangle web is a net: a triangular mesh of
oriented 3-cycles (one boundary strand of the honeycomb per mesh row) with
three chains ("strings") hanging off its corners, one per triangle corner.
The mesh of size n = |x| is the piece of the lattice graph on

    T_n = {(p, q) : p <= 0 <= q, q - p <= n}

with corners A' = (-n, 0), B' = (0, 0), C' = (0, n); for x < 0 every mesh
arc is reversed (the lattice graph is isomorphic to its reverse under
negation).  The top string runs from terminal A to A' with w arcs pointing
toward the mesh and v away; the bottom-left string (B to B') has u inward
and t outward arcs; the bottom-right (C to C') has y inward and z outward.

Recomputing the seven hive coordinates from this graph alone, via the
asymmetric metric, is an independent check of the closed-form conversion:
a1..a7 are the six string-terminal distances plus one tripod minimum.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .hive import TriangleHive
from .metric import OrientedGraph, _thirds_from, _tripod
# unused here, but the benchmark's tracer hooks both by name on this module
from .metric import distances_from, fermat_brute  # noqa: F401
from .web import TriangleWebCoords


@dataclass(frozen=True)
class TriangleNet:
    graph: OrientedGraph
    a: object  # terminal vertices
    b: object
    c: object
    a_mesh: object  # mesh corner each string attaches to
    b_mesh: object
    c_mesh: object


def _mesh(n: int, reverse: bool):
    vertices = []
    arcs = []
    for p in range(-n, 1):
        for q in range(0, n + p + 1):
            vertices.append((p, q))
    inside = set(vertices)
    for p, q in vertices:
        for dp, dq in ((1, 0), (0, 1), (-1, -1)):
            nxt = (p + dp, q + dq)
            if nxt in inside:
                arcs.append(((nxt, (p, q)) if reverse else ((p, q), nxt)))
    return vertices, arcs


def _string(name: str, corner, inward: int, outward: int, vertices, arcs):
    """Chain from a new terminal to ``corner``: ``inward`` arcs point toward
    the mesh, ``outward`` away; inward arcs are placed nearest the terminal.
    Returns the terminal vertex."""
    total = inward + outward
    if total == 0:
        return corner
    chain = [(name, i) for i in range(total)]  # chain[0] = terminal
    vertices.extend(chain)
    path = chain + [corner]  # terminal ... corner
    for i in range(total):
        here, nxt = path[i], path[i + 1]
        if i < inward:
            arcs.append((here, nxt))
        else:
            arcs.append((nxt, here))
    return chain[0]


def build_net(c: TriangleWebCoords) -> TriangleNet:
    """Net of the triangle web with coordinates ``c``."""
    x, y, z, t, u, v, w = astuple(c)
    n = abs(x)
    vertices, arcs = _mesh(n, reverse=x < 0)
    a_mesh, b_mesh, c_mesh = (-n, 0), (0, 0), (0, n)
    term_a = _string("A", a_mesh, w, v, vertices, arcs)
    term_b = _string("B", b_mesh, u, t, vertices, arcs)
    term_c = _string("C", c_mesh, y, z, vertices, arcs)
    return TriangleNet(
        OrientedGraph(vertices, arcs),
        term_a, term_b, term_c, a_mesh, b_mesh, c_mesh,
    )


def oracle_triangle_hive(c: TriangleWebCoords) -> TriangleHive:
    """Hive coordinates of ``c`` computed purely from net distances: the six
    terminal-to-terminal distances and the tripod minimum all come from the
    three searches out of the terminals."""
    net = build_net(c)
    terminals = (net.a, net.b, net.c)
    from_a, from_b, from_c = (_thirds_from(net.graph, v) for v in terminals)
    a4, _ = _tripod(from_a, from_b, from_c)
    pa, pb, pc = (net.graph._index[v] for v in terminals)
    return TriangleHive.from_thirds(  # a1..a7
        (from_b[pa], from_c[pa], from_a[pb], a4, from_a[pc], from_c[pb], from_b[pc])
    )
