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

The graph is laid out on positions by arithmetic: mesh row r = p + n holds
(p, q) for q = 0..r at position r(r+1)/2 + q, with arcs to +r+1 (r < n),
+1 (q < r) and -r-1 (r >= 1 and q >= 1), and each string's chain follows the
mesh in the order A, B, C, its terminal first.  The vertex names (p, q) and
(label, i) and the adjacency lists are made only when a caller reads them;
the oracle searches from the terminal positions and never does.  Its search
(``_Net._search``) rests on two facts:

- The mesh.  Every arc of T_n lies on an oriented lattice 3-cycle inside
  T_n, and so does every arc of the reversed mesh.  Walking an arc backwards
  therefore never beats walking the cycle's two other arcs forwards, so mesh
  distances come from a breadth-first search (:func:`~hiveweb.metric._bfs`)
  over three cell offsets on a padded list, +P, +1 and -P-1, negated when
  x < 0, whose border cells and cells outside the triangle hold -1.
- The strings.  Each string is a path that meets the mesh at its corner
  only.  A search from any position walks its own string, with step costs
  of 1 or 2 thirds read from its arcs' directions; runs the breadth-first
  search from that string's corner, starting at the string's distance; and
  walks each other string outward from its corner.

Recomputing the seven hive coordinates from this graph alone, via the
asymmetric metric, is an independent check of the closed-form conversion:
a1..a7 are the six string-terminal distances plus one tripod minimum, read
from graph distances only.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .metric import _bfs, _LatticeGraph, _lattice_piece, _tripod, _unreached
# unused here, but the benchmark's tracer hooks both by name on this module
from .metric import distances_from, fermat_brute  # noqa: F401
from .web import WebTuple, _corners_checked


# a net's graph and the positions of its terminals a, b, c; unpacks as
# ``graph, terminals`` (the benchmark's tracer reads ``.graph``)
Net = namedtuple("Net", "graph terminals")


def _string(corner: int, steps: list[int], fwd: list, back: list) -> None:
    """Append the lists of a chain of ``len(steps)`` new vertices, terminal
    first, whose last vertex is joined to the vertex at position ``corner``;
    arc i, from the chain's i-th vertex to the next one (or the corner),
    points toward the mesh where ``steps[i]`` is 1 and away where it is 2."""
    fwd[corner], back[corner] = list(fwd[corner]), list(back[corner])  # appended to below
    start = len(fwd)
    fwd += ([] for _ in steps)
    back += ([] for _ in steps)
    path = [*range(start, start + len(steps)), corner]
    for i, step in enumerate(steps):
        tail, head = path[i], path[i + 1]
        if step == 2:
            tail, head = head, tail
        fwd[tail].append(head)
        back[head].append(tail)


def _along(steps: list[int], j: int, d: int) -> list[int]:
    """Distances in thirds along a string's chain, then to its corner, from
    the chain's ``j``-th vertex (the corner if ``j == len(steps)``) at
    distance ``d``: toward the mesh arc i costs ``steps[i]``, away from it
    the other of 1 and 2."""
    out = [d] * (len(steps) + 1)
    for i in range(j, len(steps)):
        out[i + 1] = out[i] + steps[i]
    for i in range(j - 1, -1, -1):
        out[i] = out[i + 1] + 3 - steps[i]
    return out


class _Net(_LatticeGraph):
    """The graph :func:`build_net` returns.  ``_strings`` holds, for the
    mesh corners A', B', C' in turn, the corner's position, the first
    position of its string's chain and the string's ``steps``: the cost in
    thirds of each arc walked toward the mesh, terminal first, 1 for the
    inward arcs, which lie nearest the terminal, and 2 for the outward ones."""

    def __init__(self, x: int, inward: tuple[int, ...], outward: tuple[int, ...]):
        n = abs(x)
        self._x, self._n, self._mesh = x, n, (n + 1) * (n + 2) // 2
        # A' = (-n, 0), B' = (0, 0) and C' = (0, n)
        corners = (0, n * (n + 1) // 2, self._mesh - 1)
        self._strings = []
        self._size = self._mesh
        for corner, i, o in zip(corners, inward, outward):
            self._strings.append((corner, self._size, [1] * i + [2] * o))
            self._size += i + o

    def _name(self, i: int) -> tuple:
        if i < self._mesh:
            r = (isqrt(8 * i + 1) - 1) // 2
            return (r - self._n, i - r * (r + 1) // 2)
        for label, (_, start, steps) in zip("ABC", self._strings):
            if i < start + len(steps):
                return (label, i - start)

    def _lists(self) -> tuple[list, list]:
        fwd, back = _lattice_piece([(0, r) for r in range(self._n + 1)])
        if self._x < 0:
            fwd, back = back, fwd
        for corner, _, steps in self._strings:
            _string(corner, steps, fwd, back)
        return fwd, back

    def _search(self, s: int) -> list[int]:
        """Distances in thirds from position ``s``, by position, found as the
        module docstring sets out.  With P = n + 3, mesh row r is cells
        (r+1)·P + 1 … (r+1)·P + r+1 of a padded list of P² cells."""
        n, strings = self._n, self._strings
        corner, d, own = s, 0, None
        for k, (c, start, steps) in enumerate(strings):
            if start <= s < start + len(steps):
                walk = _along(steps, s - start, 0)
                corner, d, own = c, walk[-1], k
        P = n + 3
        dist = [-1] * (P * P)
        bound = _unreached(self)
        for r in range(1, n + 2):
            dist[r * P + 1:r * P + r + 1] = [bound] * r
        r = (isqrt(8 * corner + 1) - 1) // 2
        up, right, down_left = P, 1, -P - 1
        if self._x < 0:
            up, right, down_left = -up, -right, -down_left
        _bfs(dist, (r + 1) * P + 1 + corner - r * (r + 1) // 2, d, up, right, down_left)
        out: list[int] = []
        for r in range(1, n + 2):
            out += dist[r * P + 1:r * P + r + 1]
        for k, (c, _, steps) in enumerate(strings):
            out += (walk if k == own else _along(steps, len(steps), out[c]))[:-1]
        return out


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
