"""Differential test of the metric's search kernel against a heap Dijkstra.

The reference below is the ``heapq`` Dijkstra over a dict adjacency that the
metric used before it ran on indexed adjacency with a bucket queue.  Random
multigraphs (self-loops, parallel and antiparallel arcs, isolated vertices,
string, tuple and int ids) must give the same distances, the same tripod
minimum and argmin, and the same errors.  The lattice window, built by
position arithmetic with names made on demand, is compared with the
string-keyed window it replaced, and its search on a padded array of its own
with the list search on the window's lattice lists.
"""

from __future__ import annotations

import functools
import heapq
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiveweb.errors import Unreachable
from hiveweb.metric import (
    OrientedGraph,
    _lattice_piece,
    _shown,
    _thirds_from,
    _tripod,
    _unreached,
    distances_from,
    fermat_brute,
    gamma_window,
    shortest_distance,
)
from hiveweb.surfacoid import build_net


def reference_distances(vertices, arcs, source) -> dict:
    adj = {v: [] for v in vertices}
    for tail, head in arcs:
        adj[tail].append((head, 1))
        adj[head].append((tail, 2))
    dist = {source: 0}
    done = set()
    heap = [(0, 0, source)]
    order = 0
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                order += 1
                heapq.heappush(heap, (nd, order, v))
    return dist


def reference_fermat(vertices, arcs, a, b, c):
    da, db, dc = (reference_distances(vertices, arcs, s) for s in (a, b, c))
    totals = {v: da[v] + db[v] + dc[v]
              for v in vertices if v in da and v in db and v in dc}
    if not totals:
        return None
    best = min(totals.values())
    return best, {v for v, total in totals.items() if total == best}


def _vertex_id(i: int, kind: int):
    return (f"v{i}", (i, -i), i)[kind]


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    vertices = [_vertex_id(i, k) for i, k in enumerate(kinds)]
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    # parallel and antiparallel copies of some arcs
    pairs += [pair for pair in pairs if draw(st.booleans())]
    pairs += [(j, i) for i, j in pairs if draw(st.booleans())]
    arcs = [(vertices[i], vertices[j]) for i, j in draw(st.permutations(pairs))]
    a, b, c = (vertices[draw(ends)] for _ in range(3))
    return vertices, arcs, (a, b, c)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_kernel_matches_heap_dijkstra(case):
    vertices, arcs, (a, b, c) = case
    graph = OrientedGraph(vertices, arcs)
    for source in (a, b, c):
        reference = reference_distances(vertices, arcs, source)
        assert distances_from(graph, source) == reference
        for target in vertices:
            if target in reference:
                assert shortest_distance(graph, source, target) == reference[target]
            else:
                with pytest.raises(Unreachable):
                    shortest_distance(graph, source, target)
    expected = reference_fermat(vertices, arcs, a, b, c)
    if expected is None:
        with pytest.raises(Unreachable):
            fermat_brute(graph, a, b, c)
    else:
        assert fermat_brute(graph, a, b, c) == expected


class _CountingList(list):
    """Adjacency lists that count how often each vertex's entry is read."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


# v is queued at 3 through the arc v -> x, then at 2 through z -> v, so its
# entry at 3 is stale when its bucket comes up
STALE_ENTRY = (["s", "x", "z", "v"], [("s", "x"), ("s", "z"), ("v", "x"), ("z", "v")],
               ("s", "s", "s"))


@settings(max_examples=150, deadline=None)
@given(graphs())
@example(STALE_ENTRY)
def test_kernel_settles_each_reachable_vertex_once(case):
    """The search is linear: every reachable vertex's arcs are scanned
    exactly once, however many times it was reached."""
    vertices, arcs, (source, _, _) = case
    graph = OrientedGraph(vertices, arcs)
    graph._fwd = _CountingList(graph._fwd)
    distances_from(graph, source)
    index = {v: i for i, v in enumerate(vertices)}
    settled = reference_distances(vertices, arcs, source)
    assert graph._fwd.reads == Counter(index[v] for v in settled)


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_a_chain_of_back_arcs_reaches_the_largest_distance(n):
    """Every arc points back toward the source, so the far end is 2(n-1)
    thirds away, the most a graph on n vertices allows: a bound of n or
    less for "unreached" would lose it."""
    vertices = list(range(n))
    graph = OrientedGraph(vertices, [(i + 1, i) for i in range(n - 1)])
    assert distances_from(graph, 0) == {i: 2 * i for i in vertices}
    assert shortest_distance(graph, 0, n - 1) == 2 * (n - 1)
    assert shortest_distance(graph, n - 1, 0) == n - 1
    # from both ends, every vertex sums to 2(n-1)
    assert fermat_brute(graph, n - 1, n - 1, 0) == (2 * (n - 1), set(vertices))


def test_a_vertex_reached_by_two_sources_is_no_tripod_point():
    """Arcs can be walked both ways, so a vertex is reached by all three
    sources or the sources lie in two components.  Here ``b`` and ``c`` sit
    on a vertex that ``a`` cannot reach: their distances there are 0, so its
    sum is exactly the bound."""
    graph = OrientedGraph(["a", "b"], [])
    bound = _unreached(graph)
    assert _thirds_from(graph, 0) == [0, bound]
    with pytest.raises(Unreachable, match='no vertex reachable from all of "a", "b", "b"'):
        fermat_brute(graph, "a", "b", "b")
    assert _tripod([0, bound], [bound, 0], [bound, 0], bound) == (bound, [])
    with pytest.raises(Unreachable):
        fermat_brute(OrientedGraph(["a", "b", "c"], [("a", "b")]), "a", "b", "c")


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_no_distance_is_the_bound(case):
    vertices, arcs, (source, _, _) = case
    graph = OrientedGraph(vertices, arcs)
    dist = _thirds_from(graph, graph._locate(source))
    bound = _unreached(graph)
    reached = distances_from(graph, source)
    assert all(d < bound for d in reached.values())
    assert len(reached) == sum(d < bound for d in dist)
    assert all(d <= bound for d in dist)  # an unreached vertex holds the bound itself


def test_unknown_vertices_raise_key_error():
    graph = OrientedGraph(["u", "v"], [("u", "v")])
    with pytest.raises(KeyError, match='unknown vertex "w"'):
        distances_from(graph, "w")
    with pytest.raises(KeyError, match='unknown vertex "w"'):
        shortest_distance(graph, "w", "u")
    with pytest.raises(KeyError, match='unknown vertex "x"'):
        shortest_distance(graph, "w", "x")  # the target is checked first
    with pytest.raises(KeyError, match='unknown vertex "w"'):
        fermat_brute(graph, "u", "w", "v")


def reference_gamma_window(radius: int) -> dict:
    span = range(-radius, radius + 1)
    vertices = [f"{x},{y}" for x in span for y in span]
    arcs = []
    for x in span:
        for y in span:
            for dx, dy in ((1, 0), (0, 1), (-1, -1)):
                nx, ny = x + dx, y + dy
                if -radius <= nx <= radius and -radius <= ny <= radius:
                    arcs.append([f"{x},{y}", f"{nx},{ny}"])
    return {"vertices": vertices, "arcs": arcs}


@pytest.mark.parametrize("radius", range(17))
def test_gamma_window_keeps_vertex_and_arc_order(radius):
    assert gamma_window(radius).to_json() == reference_gamma_window(radius)


def reference_lattice_piece(rows):
    points = [(k, c) for k, (lo, hi) in enumerate(rows) for c in range(lo, hi + 1)]
    index = {p: i for i, p in enumerate(points)}
    fwd = [[] for _ in points]
    back = [[] for _ in points]
    for (k, c), i in index.items():
        for dk, dc in ((1, 0), (0, 1), (-1, -1)):
            j = index.get((k + dk, c + dc))
            if j is not None:
                fwd[i].append(j)
                back[j].append(i)
    return fwd, back


@settings(max_examples=300, deadline=None)
@given(st.integers(-6, 6),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 18)), min_size=1, max_size=8))
def test_lattice_piece_matches_point_lookup(lo, spans):
    """Rows up to 19 columns long, each shifted from the one below by up to
    four columns either way, so that a row may overhang its neighbours at
    either end or lie beside them with no column in common."""
    rows = []
    for shift, length in spans:
        lo += shift
        rows.append((lo, lo + length))
    assert _lattice_piece(rows) == reference_lattice_piece(rows)


@pytest.mark.parametrize("rows", [
    *([(-r, r)] * (2 * r + 1) for r in range(21)),  # gamma_window(r)
    *([(0, k) for k in range(n + 1)] for n in range(46)),  # build_net mesh, |x| = n
], ids=[*(f"window{r}" for r in range(21)), *(f"mesh{n}" for n in range(46))])
def test_lattice_piece_matches_point_lookup_on_cli_shapes(rows):
    assert _lattice_piece(rows) == reference_lattice_piece(rows)


@pytest.mark.parametrize("radius", range(17))
def test_gamma_window_matches_string_keyed_window(radius):
    doc = reference_gamma_window(radius)
    reference = OrientedGraph(doc["vertices"], [tuple(arc) for arc in doc["arcs"]])
    window = gamma_window(radius)
    assert window.vertices == reference.vertices
    assert Counter(window.arcs) == Counter(reference.arcs)
    for x in (-radius, radius):
        for y in (-radius, radius):
            corner = f"{x},{y}"
            assert (window._search(window._locate(corner))
                    == _thirds_from(reference, reference._index[corner]))


@pytest.mark.parametrize("name", ["+1,0", "01,0", " 1,0", "1, 0", "1,0,0", "1_0,0",
                                  "4,0", "0,-4", "-4,3", ",", "", 5, (1, 0), None])
def test_window_resolves_only_exact_point_keys(name):
    window = gamma_window(3)
    assert "1,0" in window and "-3,3" in window
    assert name not in window
    unknown = re.escape(f"unknown vertex {_shown(name)}")
    with pytest.raises(KeyError, match=unknown):
        fermat_brute(window, "0,0", name, "1,1")
    with pytest.raises(KeyError, match=unknown):
        shortest_distance(window, name, "0,0")
    with pytest.raises(KeyError, match=unknown):
        distances_from(window, name)


def test_names_read_after_a_search_match_names_read_before():
    before = gamma_window(4)
    expected = before.vertices, before.arcs, before.to_json()
    after = gamma_window(4)
    assert fermat_brute(after, "0,0", "2,0", "0,2") == fermat_brute(before, "0,0", "2,0", "0,2")
    assert shortest_distance(after, "-4,-4", "4,4") == 16
    assert (after.vertices, after.arcs, after.to_json()) == expected
    assert distances_from(after, "1,1") == distances_from(before, "1,1")


@pytest.mark.parametrize("radius", range(13))
def test_window_search_matches_list_search_from_every_source(radius):
    """:func:`_thirds_from` runs the list search on the lists a window
    builds for a generic reader."""
    window, reference = gamma_window(radius), gamma_window(radius)
    for s in range(len(reference._fwd)):
        assert window._search(s) == _thirds_from(reference, s)
    assert "_fwd" not in vars(window)
    listed = OrientedGraph(reference.vertices, reference.arcs)
    assert _unreached(window) == _unreached(listed)
    assert fermat_brute(window, "0,0", f"{radius},0", f"0,{radius}") == fermat_brute(
        listed, "0,0", f"{radius},0", f"0,{radius}")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_window_search_matches_list_search_on_large_windows(data):
    radius = data.draw(st.integers(13, 40), label="radius")
    reference = gamma_window(radius)
    s = data.draw(st.integers(0, len(reference._fwd) - 1), label="source")
    assert gamma_window(radius)._search(s) == _thirds_from(reference, s)


def test_a_graph_rebuilt_from_its_arcs_gives_the_same_distances():
    """A graph compiled from the ``arcs`` of a net or a window is searched
    to the same distances as the lattice graph's lists and its own search,
    from each net terminal and each window source."""
    rng = random.Random(0)
    for x in range(-12, 13):
        graph, terminals = build_net((x, *(rng.randrange(5) for _ in range(6))))
        rebuilt = OrientedGraph(graph.vertices, graph.arcs)
        for p in terminals:
            assert _thirds_from(rebuilt, p) == _thirds_from(graph, p) == graph._search(p)
    for radius in range(7):
        window = gamma_window(radius)
        rebuilt = OrientedGraph(window.vertices, window.arcs)
        for s in range(window._size):
            assert _thirds_from(rebuilt, s) == _thirds_from(window, s) == window._search(s)


def _net_graph(coords):
    return build_net(coords).graph


def _fresh_graphs():
    """Builders of the window of each radius 0 to 6 and of a net for each
    x = -6..6 with drawn corner counts."""
    rng = random.Random(34)
    graphs = {f"window{radius}": functools.partial(gamma_window, radius) for radius in range(7)}
    for x in range(-6, 7):
        graphs[f"net{x}"] = functools.partial(
            _net_graph, (x, *(rng.randint(0, 4) for _ in range(6))))
    return graphs


FRESH_GRAPHS = _fresh_graphs()


@pytest.mark.parametrize("build", FRESH_GRAPHS.values(), ids=FRESH_GRAPHS)
def test_searches_on_one_graph_match_searches_on_fresh_graphs(build):
    """A lattice graph keeps the list each search starts from.  Searching
    one graph from every position, then again in reversed order, gives what
    one search on a freshly built graph gives."""
    graph = build()
    order = [*range(graph._size), *reversed(range(graph._size))]
    fresh = {s: build()._search(s) for s in range(graph._size)}
    assert [graph._search(s) for s in order] == [fresh[s] for s in order]


def test_counting_and_searching_a_window_builds_no_lists():
    window = gamma_window(5, ["-5,-5", "5,5"])
    assert len(window.vertices) == 121 and _unreached(window) == 6 * 121
    assert distances_from(window, "0,0")["5,5"] == 10
    assert fermat_brute(window, "0,0", "2,0", "0,2")[0] == 8
    assert "_fwd" not in vars(window) and "_back" not in vars(window)
    assert len(window.arcs) == 2 * 11 * 10 + 10 * 10  # a generic reader builds them
    assert window._back == _lattice_piece([(-5, 5)] * 11)[1]


def test_window_refuses_a_corner_outside_it():
    with pytest.raises(KeyError, match='unknown vertex "6,0"'):
        gamma_window(5, ["0,0", "6,0", "7,0"])
    with pytest.raises(AttributeError):
        gamma_window(1)._missing
