"""The distance search ends, checked under a wall-clock alarm.

A search whose queue never empties would hang the suite until an outer time
limit stops it.  Each search here runs on a small graph under
``signal.setitimer``, and the alarm fails the test in seconds.
"""

from __future__ import annotations

import signal

import pytest

from hiveweb.metric import OrientedGraph, _thirds_from, gamma_window
from hiveweb.surfacoid import build_net

SECONDS = 2.0  # each search below takes well under a millisecond


class SearchDidNotEnd(Exception):
    pass


@pytest.fixture
def alarm():
    def ring(signum, frame):
        raise SearchDidNotEnd(f"the search ran past {SECONDS} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


GRAPHS = {
    "one arc": (OrientedGraph("uv", [("u", "v")]), [0, 1]),
    "a path against its arcs": (OrientedGraph("uvw", [("v", "u"), ("w", "v")]), [0, 2, 4]),
    "a directed triangle": (OrientedGraph("uvw", [("u", "v"), ("v", "w"), ("w", "u")]),
                            [0, 1, 2]),
    "an unreachable vertex": (OrientedGraph("uvw", [("u", "v")]), [0, 1, 18]),
}


@pytest.mark.parametrize("graph,expected", GRAPHS.values(), ids=GRAPHS)
def test_the_search_ends_on_small_graphs(alarm, graph, expected):
    assert _thirds_from(graph, 0) == expected


def test_the_searches_of_a_net_and_a_window_end(alarm):
    graph, terminals = build_net((-3, 1, 2, 0, 1, 2, 1))
    for position in terminals:
        assert len(graph._search(position)) == len(graph.vertices)
    window = gamma_window(3)
    assert max(window._search(0)) < 6 * len(window.vertices)
