"""Differential test of the metric's search kernel against a heap Dijkstra.

The reference below is the ``heapq`` Dijkstra over a dict adjacency that the
metric used before it ran on indexed adjacency with a bucket queue.  Random
multigraphs (self-loops, parallel and antiparallel arcs, isolated vertices,
string, tuple and int ids) must give the same distances, the same tripod
minimum and argmin, and the same errors.
"""

from __future__ import annotations

import heapq
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiveweb.errors import Unreachable
from hiveweb.metric import (
    OrientedGraph,
    distances_from,
    fermat_brute,
    gamma_window,
    shortest_distance,
)
from hiveweb.thirds import Third


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
    return {v: Third(d) for v, d in dist.items()}


def reference_fermat(vertices, arcs, a, b, c):
    da, db, dc = (reference_distances(vertices, arcs, s) for s in (a, b, c))
    totals = {v: da[v].thirds + db[v].thirds + dc[v].thirds
              for v in vertices if v in da and v in db and v in dc}
    if not totals:
        return None
    best = min(totals.values())
    return Third(best), {v for v, total in totals.items() if total == best}


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


@settings(max_examples=150, deadline=None)
@given(graphs())
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


def test_unknown_vertices_raise_key_error():
    graph = OrientedGraph(["u", "v"], [("u", "v")])
    with pytest.raises(KeyError, match="unknown vertex 'w'"):
        distances_from(graph, "w")
    with pytest.raises(KeyError, match="unknown vertex 'w'"):
        shortest_distance(graph, "w", "u")
    with pytest.raises(KeyError, match="unknown vertex 'x'"):
        shortest_distance(graph, "w", "x")  # the target is checked first
    with pytest.raises(KeyError, match="unknown vertex 'w'"):
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
