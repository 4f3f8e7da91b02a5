"""Asymmetric intersection metric on finite oriented graphs.

Traversing an arc with its direction costs 1/3, against it 2/3.  Distances are
computed by Dijkstra on the doubled arc set with integer weights 1 and 2 in
third units, on plain ints indexed by vertex position, and every distance
and minimum the API returns is such an int in thirds.  The search keeps its
queue in three rotating buckets (distances d, d+1 and d+2) and marks an
unreached vertex with the int bound ``6·V``, which no sum of three real
distances reaches.  Each kind of graph provides its search (``_search``): a
graph read from a document runs Dijkstra on its lists, while a lattice
graph (:class:`_LatticeGraph`: a window, or a dual net of
:mod:`hiveweb.surfacoid`), on whose piece every arc walked backwards costs
what two arcs walked forwards do, runs one breadth-first kernel
(:func:`_bfs`) over the forward arcs on a padded array and builds no lists;
a dual net turns one search from a mesh corner into those from the other two.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections.abc import Hashable, Iterable
from operator import itemgetter

from .errors import MalformedInput, OmegaEmpty, Unreachable
from .thirds import _shown, checked_int, read_array

Vertex = Hashable


class OrientedGraph:
    """Finite directed multigraph; immutable once built.

    Searches run on positions 0..V-1, with V = ``_size``: ``_fwd[i]`` is a
    sequence of the heads of arcs out of ``i`` (1 third each), ``_back[j]``
    of the tails of arcs into ``j`` (2 thirds each).  A lattice graph
    (:class:`_LatticeGraph`) has no such lists and names its vertices by
    ``_name``: its ``vertices`` and the name-to-position index ``_index``
    are made from the names the first time they are read.
    """

    def __init__(self, vertices: Iterable[Vertex], arcs: Iterable[tuple[Vertex, Vertex]]):
        self.vertices = list(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            twice = next(v for i, v in enumerate(self.vertices) if self._index[v] != i)
            raise MalformedInput(f"vertices: {_shown(twice)} is listed twice")
        self.arcs = list(arcs)
        index = self._index
        fwd: list[list[int]] = [[] for _ in self.vertices]
        back: list[list[int]] = [[] for _ in self.vertices]
        for tail, head in self.arcs:
            try:
                i, j = index[tail], index[head]
            except (KeyError, TypeError):  # TypeError: an unhashable endpoint
                raise MalformedInput(
                    f"arc ({_shown(tail)}, {_shown(head)}) has an unknown endpoint") from None
            fwd[i].append(j)
            back[j].append(i)
        self._fwd, self._back = fwd, back
        self._name = self.vertices.__getitem__
        self._size = len(self.vertices)

    @functools.cached_property
    def vertices(self) -> list[Vertex]:
        return list(map(self._name, range(self._size)))

    @functools.cached_property
    def _index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def _position(self, v: Vertex) -> int | None:
        """Position of ``v``, or None if it is no vertex."""
        return self._index.get(v)

    def _locate(self, v: Vertex) -> int:
        i = self._position(v)
        if i is None:
            raise KeyError(f"unknown vertex {_shown(v)}")
        return i

    def __contains__(self, v: Vertex) -> bool:
        return self._position(v) is not None

    def _search(self, s: int) -> list[int]:
        """Distances in thirds from position ``s``, by vertex position
        (:func:`_unreached` where unreachable): here Dijkstra on the lists."""
        return _thirds_from(self, s)

    @classmethod
    def from_json(cls, obj: dict) -> "OrientedGraph":
        """Graph of a document whose ``vertices`` is an array of string or
        integer ids, each integer under :func:`checked_int`, and whose
        ``arcs`` is an array of [tail, head] pairs of them."""
        vertices, arcs = (read_array(obj, "graph document", key) for key in ("vertices", "arcs"))
        for v in vertices:
            if type(v) is int:
                checked_int(v, "vertices")
            elif type(v) is not str:
                raise MalformedInput(f"vertices: {_shown(v)} is neither a string nor an integer")
        for arc in arcs:
            if type(arc) is not list or len(arc) != 2:
                raise MalformedInput(f"arcs: {_shown(arc)} is not a [tail, head] pair")
            # true and 1.0 hash like the id 1, so an endpoint of another type
            # would find that vertex
            if not all(type(v) is str or type(v) is int for v in arc):
                raise MalformedInput(
                    f"arc ({_shown(arc[0])}, {_shown(arc[1])}) has an unknown endpoint")
        return cls(vertices, [tuple(arc) for arc in arcs])


def _unreached(graph: OrientedGraph) -> int:
    """``6·V``, the distance a search gives a vertex it does not reach.  A
    real distance is at most 2(V-1) thirds, so three of them sum to less
    than this bound, and a sum with an unreached term to at least it."""
    return 6 * graph._size


def _thirds_from(graph: OrientedGraph, s: int) -> list[int]:
    """Distances in thirds from the vertex at position ``s``, by vertex
    position (:func:`_unreached` where unreachable), searched on the graph's
    ``_fwd`` and ``_back``.

    The weights are only 1 and 2, so Dijkstra runs on Dial's bucket queue
    kept as three rotating lists: ``here`` holds the vertices reached at the
    current distance ``d``, ``near`` those at d+1 and ``far`` those at d+2.
    An entry whose vertex was since reached closer is skipped.  Each vertex
    is settled once, so the search is O(V + E).  This is the search of a
    graph read from a document; a lattice graph has no lists to search.
    """
    fwd, back = graph._fwd, graph._back
    dist = [_unreached(graph)] * len(fwd)
    dist[s] = 0
    here, near, far = [s], [], []
    d = 0
    while here or near:  # far is empty after every rotation
        one, two = d + 1, d + 2
        for u in here:
            if dist[u] != d:
                continue
            for v in fwd[u]:
                if one < dist[v]:
                    dist[v] = one
                    near.append(v)
            for v in back[u]:
                if two < dist[v]:
                    dist[v] = two
                    far.append(v)
        here, near, far = near, far, []
        d = one
    return dist


def _bfs(dist: list[int], start: int, up: int, right: int, down_left: int) -> None:
    """Fill ``dist``, a padded list of cells, breadth-first from cell
    ``start`` at distance 0 over the arcs to the cells at offsets ``up``,
    ``right`` and ``down_left``, one third each; a cell is settled when it is
    first reached.  Cells to be reached hold a bound above every distance,
    the others -1, so that ``d < dist[v]`` never enters them and a cell's
    arcs need no test of where it lies.  These are the true distances on a
    lattice piece where every arc lies on an oriented lattice triangle inside
    the piece: the triangle's other two arcs lead from the arc's head back
    to its tail for the two thirds that walking the arc backwards costs."""
    dist[start] = 0
    queue = [start]
    for u in queue:  # read while it grows
        d = dist[u] + 1
        if d < dist[v := u + up]:
            dist[v] = d
            queue.append(v)
        if d < dist[v := u + right]:
            dist[v] = d
            queue.append(v)
        if d < dist[v := u + down_left]:
            dist[v] = d
            queue.append(v)


def _tripod(da: list[int], db: list[int], dc: list[int], bound: int) -> tuple[int, list[int]]:
    """Minimum of da + db + dc over the positions reached in all three, with
    the positions attaining it (``bound`` and [] if there are none).  A
    position that some search left at ``bound`` sums to at least ``bound``."""
    best, argmin = bound, []
    for i, (x, y, z) in enumerate(zip(da, db, dc)):
        total = x + y + z
        if total < best:
            best, argmin = total, [i]
        elif total == best:
            argmin.append(i)
    if best >= bound:
        return bound, []
    return best, argmin


def distances_from(graph: OrientedGraph, source: Vertex) -> dict[Vertex, int]:
    """Exact distances in thirds from ``source`` to every reachable vertex."""
    dist, bound = graph._search(graph._locate(source)), _unreached(graph)
    return {v: d for v, d in zip(graph.vertices, dist) if d < bound}


def shortest_distance(graph: OrientedGraph, s: Vertex, t: Vertex) -> int:
    """Minimum 1/3-2/3 path length from ``s`` to ``t``, in thirds."""
    j = graph._locate(t)
    d = graph._search(graph._locate(s))[j]
    if d >= _unreached(graph):
        raise Unreachable(f"no path from {_shown(s)} to {_shown(t)}")
    return d


def gamma_distance(x: int, y: int) -> int:
    """Closed-form distance in thirds from the origin to (x, y) on the
    infinite lattice graph."""
    return max(x + y, y - 2 * x, x - 2 * y)


def _layout(rows: list[tuple[int, int]],
            fill: int) -> tuple[int, list[tuple[int, int, int]], list[int]]:
    """The padded layout of the lattice piece on the points (k, c) with
    ``lo <= c <= hi`` for ``rows[k] == (lo, hi)``, numbered row by row, made
    in one pass over the rows: P; for each row, its cells ``a`` to ``b - 1``
    and the position of its first point; and a list of P·(len(rows) + 2)
    cells that holds ``fill`` in the piece's cells and -1 in a border of
    cells outside it on every side, so the arcs out of a point, to
    (k+1, c), (k, c+1) and (k-1, c-1), are the offsets +P, +1 and -P-1."""
    los, his = zip(*rows)
    first = min(los) - 1  # the border column each row of the list starts with
    P = max(his) - first + 2
    padded, cell = [-1] * (P * (len(rows) + 2)), [fill]
    spans, position = [], 0
    for k, (lo, hi) in enumerate(rows, 1):
        a = k * P + lo - first
        b = a + hi - lo + 1
        spans.append((a, b, position))
        padded[a:b] = cell * (b - a)
        position += b - a
    return P, spans, padded


def _along(steps: list[int], j: int, d: int) -> list[int]:
    """Distances in thirds along a string's chain, then to its corner, from
    the chain's ``j``-th vertex (the corner if ``j == len(steps)``) at
    distance ``d``: toward the piece arc i costs ``steps[i]``, away from it
    the other of 1 and 2."""
    out = [d] * (len(steps) + 1)
    for i in range(j, len(steps)):
        out[i + 1] = out[i] + steps[i]
    for i in range(j - 1, -1, -1):
        out[i] = out[i + 1] + 3 - steps[i]
    return out


class _LatticeGraph(OrientedGraph):
    """A piece of the lattice graph with strings hung on it: a lattice
    window, or a dual net (:mod:`hiveweb.surfacoid`).

    The piece holds the points of ``_rows``, which each kind gives along
    with ``_size``, laid out by :func:`_layout` when a search first needs it
    (``_grid``), with every arc reversed where ``_sign`` is -1.  Each of
    ``_strings`` is a (corner, first position, steps) triple: a chain of
    ``len(steps)`` new vertices at the positions from the first on, terminal
    first, whose last vertex is joined to the point at position ``corner``;
    ``steps[i]`` is the cost in thirds of chain arc i walked toward the
    piece, 1 where it points toward it and 2 where it points away.  A piece
    with strings is a net's mesh T_n, the rows (0, r) for r = 0..n, and
    ``_corners`` holds the positions of its corners (0, 0), (n, 0) and
    (n, n), the corners every string hangs off.

    It has no adjacency lists.  Its search rests on three facts:

    - The piece.  Every arc of a window, of a net's mesh T_n and of their
      reverses lies on an oriented lattice 3-cycle inside the piece, whose
      other two arcs lead from the arc's head back to its tail.  Walking an
      arc backwards therefore never beats walking two arcs forwards, so the
      piece's distances come from :func:`_bfs` over the three offsets of the
      layout, negated where ``_sign`` is -1.
    - The turn.  The map (r, q) -> (n - q, r - q) sends the mesh corners
      (0, 0) -> (n, 0) -> (n, n) -> (0, 0) and each arc direction up, right,
      down-left to the next, so it maps the mesh, and its reverse, onto
      itself.  The distances from the k-th corner are those from the first,
      read at the points that k turns back carry there: one search from the
      first corner (``_base``) serves all three (:meth:`_turned`).
    - The strings.  Each string is a path that meets the piece at its corner
      only.  A search from any position walks its own string, takes the
      piece's distances from that string's corner (the source itself on the
      piece) plus the distance the walk reached it at, and walks each other
      string outward from its corner.
    """

    def __init__(self, size: int, sign: int = 1,
                 strings: list[tuple[int, int, list[int]]] = (),
                 corners: tuple[int, ...] = ()):
        self._size, self._sign, self._strings, self._corners = size, sign, strings, corners

    @functools.cached_property
    def _grid(self) -> tuple[int, list[tuple[int, int, int]], list[int]]:
        """P, the rows' spans and the list a search starts from, copied for
        each (:func:`_unreached` in the piece's cells, -1 in the others):
        the layout :func:`_layout` makes."""
        return _layout(self._rows, _unreached(self))

    def _piece(self, corner: int) -> list[int]:
        """The padded list of the piece's distances from its point at
        position ``corner``."""
        (P, spans, padded), sign = self._grid, self._sign
        dist = padded.copy()
        row = bisect_right(spans, corner, key=itemgetter(2)) - 1  # the corner's row
        a, _, position = spans[row]
        _bfs(dist, a + corner - position, sign * P, sign, -sign * (P + 1))
        return dist

    @functools.cached_property
    def _base(self) -> list[int]:
        """The padded list of the mesh's distances from its first corner."""
        return self._piece(self._corners[0])

    def _turned(self, turn: int, d: int) -> list[int]:
        """The mesh's distances, by position, from its corner ``turn`` (0, 1
        or 2) plus ``d``, read off ``_base``.  Turned back ``turn`` times,
        row r's points (r, 0)..(r, r) go to the r + 1 points from (r, 0),
        (n-r, n-r) or (n, r) on by steps right, up or down-left, whose
        distances from corner 0 are the ones wanted: a slice of the padded
        list."""
        (P, spans, _), base = self._grid, self._base
        n, origin = len(spans) - 1, spans[0][0]
        first, down, step = ((origin, P, 1),
                             (origin + n * (P + 1), -P - 1, P),
                             (origin + n * P, 1, -P - 1))[turn]
        out: list[int] = []
        for r in range(n + 1):
            a = first + r * down
            out += base[a:a + (r + 1) * step:step]
        return [x + d for x in out] if d else out

    def _search(self, s: int) -> list[int]:
        """Distances in thirds from position ``s``, by position, found as the
        class docstring sets out."""
        corner, d, own = s, 0, None
        for k, (c, first, steps) in enumerate(self._strings):
            if first <= s < first + len(steps):
                walk = _along(steps, s - first, 0)
                corner, d, own = c, walk[-1], k
        if corner in self._corners:
            out = self._turned(self._corners.index(corner), d)
        else:
            dist, out = self._piece(corner), []
            for a, b, _ in self._grid[1]:
                out += dist[a:b]
        for k, (c, _, steps) in enumerate(self._strings):
            out += (walk if k == own else _along(steps, len(steps), out[c]))[:-1]
        return out


class _Window(_LatticeGraph):
    """The graph :func:`gamma_window` returns: the square's rows, with
    no strings, and its points named by their ``"x,y"`` text."""

    def __init__(self, radius: int):
        self._radius, self._side = radius, 2 * radius + 1
        super().__init__(self._side * self._side)

    @property
    def _rows(self) -> list[tuple[int, int]]:
        return [(-self._radius, self._radius)] * self._side

    def _name(self, i: int) -> str:
        return f"{i // self._side - self._radius},{i % self._side - self._radius}"

    def _position(self, v: Vertex) -> int | None:
        if not isinstance(v, str):
            return None
        x, _, y = v.partition(",")
        try:
            i = (int(x) + self._radius) * self._side + int(y) + self._radius
        except ValueError:
            return None
        # outside the square, (x, y) can alias a position whose name is v
        return i if 0 <= i < self._size and self._name(i) == v else None


def gamma_window(radius: int) -> OrientedGraph:
    """Induced subgraph of the lattice graph on the square [-radius, radius]^2.

    Every point sends arcs to (x+1,y), (x,y+1) and (x-1,y-1) when those stay
    inside the window.  With ``side = 2*radius + 1`` the point (x, y) sits at
    position ``(x+radius)*side + (y+radius)``.  A vertex is named by the
    string ``"x,y"`` of its point; the names are made only when a caller
    reads them, and a name is resolved by parsing it, so only the exact key
    text of a point in the window is a vertex.  Nothing is laid out until a
    search runs on a padded array (:meth:`_LatticeGraph._search`); the
    window has no adjacency lists.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return _Window(radius)


Point = tuple[int, int]  # (x, y) of the Z^2 vertex lattice


def _omega_bounds(a: Point, b: Point, c: Point) -> tuple[int, int, int, int, int, int]:
    """Bounds of the minimizer region for corners in the fixed role layout:
    ``a`` lower-left, ``b`` lower-right, ``c`` upper.  Permuted roles must be
    rotated into this layout by the caller."""
    return (
        a[0], b[0],     # a1 <= x <= b1
        a[1], c[1],     # a2 <= y <= c2
        b[1] - b[0],    # b2-b1 <= y-x
        c[1] - c[0],    # y-x <= c2-c1
    )


def omega_is_empty(a: Point, b: Point, c: Point) -> bool:
    xlo, xhi, ylo, yhi, dlo, dhi = _omega_bounds(a, b, c)
    if xlo > xhi or ylo > yhi or dlo > dhi:
        return True
    # the band y-x in [dlo, dhi] must meet the box's diagonal range
    return dlo > yhi - xlo or dhi < ylo - xhi


def fermat_closed_form(a: Point, b: Point, c: Point) -> int:
    """Minimum in thirds of d(a,X)+d(b,X)+d(c,X) over the lattice, when the
    minimizer region is nonempty; an empty one is refused naming each corner
    by its ``"x,y"`` text."""
    if omega_is_empty(a, b, c):
        corners = (f"{name} {_shown(f'{x},{y}')}" for name, (x, y) in zip("abc", (a, b, c)))
        raise OmegaEmpty(f"empty minimizer region for {', '.join(corners)}")
    return -a[0] - a[1] + 2 * b[0] - b[1] - c[0] + 2 * c[1]


def omega_points(a: Point, b: Point, c: Point, radius: int) -> set[Point]:
    """Integer points of the minimizer region inside [-radius, radius]^2."""
    xlo, xhi, ylo, yhi, dlo, dhi = _omega_bounds(a, b, c)
    points = set()
    for x in range(max(xlo, -radius), min(xhi, radius) + 1):
        for y in range(max(ylo, -radius), min(yhi, radius) + 1):
            if dlo <= y - x <= dhi:
                points.add((x, y))
    return points


def fermat_brute(
    graph: OrientedGraph, a: Vertex, b: Vertex, c: Vertex
) -> tuple[int, set[Vertex]]:
    """Exact minimum in thirds of the three-distance sum over all vertices,
    with the full argmin set; a corner that is no vertex is refused
    (KeyError) before the first search lays anything out."""
    sources = [graph._locate(v) for v in (a, b, c)]
    best, argmin = _tripod(*map(graph._search, sources), _unreached(graph))
    if not argmin:
        raise Unreachable(f"no vertex reachable from all of {_shown(a)}, {_shown(b)}, {_shown(c)}")
    return best, set(map(graph._name, argmin))
