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

The graph is built on positions by arithmetic: mesh row r = p + n holds
(p, q) for q = 0..r at position r(r+1)/2 + q, with arcs to +r+1 (r < n),
+1 (q < r) and -r-1 (r >= 1 and q >= 1), and each string's chain follows the
mesh in the order A, B, C, its terminal first.  The vertex names (p, q) and
(label, i) are made only when a caller reads them; the oracle searches from
the terminal positions and never does.

Recomputing the seven hive coordinates from this graph alone, via the
asymmetric metric, is an independent check of the closed-form conversion:
a1..a7 are the six string-terminal distances plus one tripod minimum, read
from graph distances only.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .metric import OrientedGraph, _lattice_piece, _thirds_from, _tripod, _unreached
# unused here, but the benchmark's tracer hooks both by name on this module
from .metric import distances_from, fermat_brute  # noqa: F401
from .web import WebTuple, _corners_checked


# a net's OrientedGraph and the positions of its terminals a, b, c; unpacks
# as ``graph, terminals`` (the benchmark's tracer reads ``.graph``)
Net = namedtuple("Net", "graph terminals")


def _string(corner: int, inward: int, outward: int, fwd, back) -> int:
    """Append a chain from a new terminal to the vertex at position
    ``corner``: ``inward`` arcs point toward the mesh, ``outward`` away;
    inward arcs are placed nearest the terminal.  Returns the terminal's
    position."""
    total = inward + outward
    if total == 0:
        return corner
    start = len(fwd)
    fwd.extend([] for _ in range(total))
    back.extend([] for _ in range(total))
    path = [*range(start, start + total), corner]  # terminal ... corner
    for i in range(total):
        tail, head = path[i], path[i + 1]
        if i >= inward:
            tail, head = head, tail
        fwd[tail].append(head)
        back[head].append(tail)
    return start


def build_net(c: WebTuple) -> Net:
    """Net of the triangle web with coordinates ``c`` = (x, y, z, t, u, v, w)
    and the positions of its terminals A, B, C; the mesh corners A', B', C'
    sit at positions 0, n(n+1)/2 and (mesh size) - 1.  Raises
    :class:`~hiveweb.errors.InvalidWebCoords` for a negative corner count."""
    x, y, z, t, u, v, w = _corners_checked(c)
    n = abs(x)
    # mesh row r = p + n holds (p, q) for q = 0..r at position r(r+1)/2 + q
    fwd, back = _lattice_piece([(0, r) for r in range(n + 1)])
    if x < 0:
        fwd, back = back, fwd
    mesh = len(fwd)
    corners = (0, n * (n + 1) // 2, mesh - 1)  # A' = (-n, 0), B' = (0, 0), C' = (0, n)
    for i in corners:  # the entries a string is appended to, as lists
        fwd[i], back[i] = list(fwd[i]), list(back[i])
    terminals = tuple(_string(corner, inward, outward, fwd, back)
                      for corner, inward, outward in zip(corners, (w, u, y), (v, t, z)))
    # (label, first position) of each nonempty string, last first
    chains = [(label, p) for label, p in zip("CBA", terminals[::-1]) if p >= mesh]

    def name(i: int):
        if i < mesh:
            r = (isqrt(8 * i + 1) - 1) // 2
            return (r - n, i - r * (r + 1) // 2)
        label, start = next(chain for chain in chains if chain[1] <= i)
        return (label, i - start)

    return Net(OrientedGraph.indexed(fwd, back, name), terminals)


def oracle_triangle_hive(c: WebTuple) -> tuple[int, ...]:
    """Hive coordinates a1..a7 of ``c``, in thirds, computed purely from net
    distances: the six terminal-to-terminal distances and the tripod minimum
    all come from the three searches out of the terminals."""
    graph, (pa, pb, pc) = build_net(c)
    from_a, from_b, from_c = (_thirds_from(graph, p) for p in (pa, pb, pc))
    a4, _ = _tripod(from_a, from_b, from_c, _unreached(graph))
    return from_b[pa], from_c[pa], from_a[pb], a4, from_a[pc], from_c[pb], from_b[pc]
