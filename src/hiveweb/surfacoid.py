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

The graph is a :class:`~hiveweb.metric._LatticeGraph`: mesh row r = p + n
holds (p, q) for q = 0..r at position r(r+1)/2 + q, and each string's chain
follows the mesh in the order A, B, C, its terminal first.  The vertex names
(p, q) and (label, i) and the adjacency lists are made only when a caller
reads them.  The oracle only searches from the terminal positions, which
the lattice graph's search (:meth:`~hiveweb.metric._LatticeGraph._search`)
does on a padded array without them.

Recomputing the seven hive coordinates from this graph alone, via the
asymmetric metric, is an independent check of the closed-form conversion:
a1..a7 are the six string-terminal distances plus one tripod minimum, read
from graph distances only.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .metric import _LatticeGraph, _tripod, _unreached
# unused here, but the benchmark's tracer hooks both by name on this module
from .metric import distances_from, fermat_brute  # noqa: F401
from .web import WebTuple, _corners_checked


# a net's graph and the positions of its terminals a, b, c; unpacks as
# ``graph, terminals`` (the benchmark's tracer reads ``.graph``)
Net = namedtuple("Net", "graph terminals")


class _Net(_LatticeGraph):
    """The graph :func:`build_net` returns: the mesh rows (0, r) for
    r = 0..n, reversed for x < 0, and the strings of the mesh corners A',
    B', C' in turn, each with its inward arcs (step 1) nearest its
    terminal and its outward ones (step 2) nearest the mesh."""

    def __init__(self, x: int, inward: tuple[int, ...], outward: tuple[int, ...]):
        n = abs(x)
        self._n, self._mesh = n, (n + 1) * (n + 2) // 2
        # A' = (-n, 0), B' = (0, 0) and C' = (0, n)
        corners = (0, n * (n + 1) // 2, self._mesh - 1)
        strings, first = [], self._mesh
        for corner, i, o in zip(corners, inward, outward):
            strings.append((corner, first, [1] * i + [2] * o))
            first += i + o
        self._rows = [(0, r) for r in range(n + 1)]
        super().__init__(first, -1 if x < 0 else 1, strings)

    def _name(self, i: int) -> tuple:
        if i < self._mesh:
            r = (isqrt(8 * i + 1) - 1) // 2
            return (r - self._n, i - r * (r + 1) // 2)
        for label, (_, start, steps) in zip("ABC", self._strings):
            if i < start + len(steps):
                return (label, i - start)


def build_net(c: WebTuple) -> Net:
    """Net of the triangle web with coordinates ``c`` = (x, y, z, t, u, v, w)
    and the positions of its terminals A, B, C; the mesh corners A', B', C'
    sit at positions 0, n(n+1)/2 and (mesh size) - 1.  Raises
    :class:`~hiveweb.errors.InvalidWebCoords` for a negative corner count."""
    x, y, z, t, u, v, w = _corners_checked(c)
    graph = _Net(x, (w, u, y), (v, t, z))
    return Net(graph, tuple(start if steps else corner
                            for corner, start, steps in graph._strings))


def oracle_triangle_hive(c: WebTuple) -> tuple[int, ...]:
    """Hive coordinates a1..a7 of ``c``, in thirds, computed purely from net
    distances: the six terminal-to-terminal distances and the tripod minimum
    all come from the three searches out of the terminals."""
    graph, (pa, pb, pc) = build_net(c)
    from_a, from_b, from_c = (graph._search(p) for p in (pa, pb, pc))
    a4, _ = _tripod(from_a, from_b, from_c, _unreached(graph))
    return from_b[pa], from_c[pa], from_a[pb], a4, from_a[pc], from_c[pb], from_b[pc]
