"""The dual net and the distance oracle.

The net is built by position arithmetic with names and lists made on
demand; it is compared with the tuple-keyed builder it replaced, kept below
as the reference, and its search on a padded array of its own with the list
search on the lists it builds for a generic reader.
"""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiveweb import metric, surfacoid
from hiveweb.cli import run
from hiveweb.metric import (
    OrientedGraph,
    _thirds_from,
    distances_from,
    fermat_brute,
    shortest_distance,
)
from hiveweb.surfacoid import build_net, oracle_triangle_hive
from hiveweb.web import WebTuple, web_to_hive_thirds


def terminal_names(graph, terminals):
    """The names of the terminals a, b, c at their positions."""
    return tuple(graph.vertices[p] for p in terminals)


def test_zero_net_is_a_point():
    graph, terminals = build_net((0, 0, 0, 0, 0, 0, 0))
    a, b, c = terminal_names(graph, terminals)
    assert a == b == c == (0, 0)
    assert len(graph.vertices) == 1
    assert graph.arcs == []
    assert oracle_triangle_hive((0, 0, 0, 0, 0, 0, 0)) == (0,) * 7


def test_unit_honeycomb_net_is_a_directed_triangle():
    graph, terminals = build_net((1, 0, 0, 0, 0, 0, 0))
    assert len(graph.vertices) == 3
    assert len(graph.arcs) == 3
    value, argmin = fermat_brute(graph, *terminal_names(graph, terminals))
    assert value == 3
    assert argmin == {(-1, 0), (0, 0), (0, 1)}


def test_net_vertex_count_formula():
    graph, _ = build_net((3, 2, 1, 1, 1, 1, 1))
    # (n+1)(n+2)/2 mesh vertices plus one per string arc
    assert len(graph.vertices) == 10 + (1 + 1) + (1 + 1) + (2 + 1)


def test_oracle_matches_formulas_on_honeycomb_instance():
    coords = (3, 2, 1, 1, 1, 1, 1)
    assert oracle_triangle_hive(coords) == web_to_hive_thirds(*coords)


def test_oracle_matches_on_reversed_honeycomb():
    coords = (-2, 0, 1, 0, 2, 0, 0)
    assert oracle_triangle_hive(coords) == web_to_hive_thirds(*coords)


def test_oracle_equivalence_seeded_batch():
    rng = random.Random(20240901)
    for _ in range(200):
        coords = (rng.randint(-3, 3), *(rng.randint(0, 2) for _ in range(6)))
        assert oracle_triangle_hive(coords) == web_to_hive_thirds(*coords), coords


def test_boundary_straight_path_is_geodesic():
    # d(B, A) along the boundary: bottom-left string, one mesh side, top string
    for x in (-3, -1, 0, 2, 3):
        coords = (x, 1, 2, 1, 2, 1, 2)
        _, _, _, t, u, v, w = coords
        graph, terminals = build_net(coords)
        a, b, _ = terminal_names(graph, terminals)
        n = abs(x)
        mesh_leg = n if x < 0 else 2 * n  # reversed mesh flips the side's direction
        straight = (u + 2 * t) + mesh_leg + (2 * w + v)
        assert shortest_distance(graph, b, a) == straight


def test_tripod_minimum_attained_on_mesh():
    rng = random.Random(7)
    for _ in range(40):
        coords = (rng.randint(-2, 2), *(rng.randint(0, 2) for _ in range(6)))
        graph, terminals = build_net(coords)
        a, b, c = terminal_names(graph, terminals)
        value, _ = fermat_brute(graph, a, b, c)
        da = distances_from(graph, a)
        db = distances_from(graph, b)
        dc = distances_from(graph, c)
        mesh = [v for v in graph.vertices if isinstance(v, tuple)]
        best_on_mesh = min(da[v] + db[v] + dc[v] for v in mesh)
        assert best_on_mesh == value


@pytest.mark.parametrize("corners", [(0,) * 6, (6,) * 6, (5, 1, 0, 2, 6, 3)])
@pytest.mark.parametrize("x", [-40, -17, -1, 0, 1, 17, 40])
def test_oracle_matches_formulas_at_benchmark_sizes(x, corners):
    coords = (x, *corners)
    assert oracle_triangle_hive(coords) == web_to_hive_thirds(*coords)


def reference_mesh(n: int, reverse: bool):
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


def reference_string(name: str, corner, inward: int, outward: int, vertices, arcs):
    total = inward + outward
    if total == 0:
        return corner
    chain = [(name, i) for i in range(total)]
    vertices.extend(chain)
    path = chain + [corner]
    for i in range(total):
        here, nxt = path[i], path[i + 1]
        arcs.append((here, nxt) if i < inward else (nxt, here))
    return chain[0]


def reference_net(coords: WebTuple):
    """Graph, terminals and mesh corners as the tuple-keyed builder made them."""
    x, y, z, t, u, v, w = coords
    n = abs(x)
    vertices, arcs = reference_mesh(n, reverse=x < 0)
    corners = (-n, 0), (0, 0), (0, n)
    terminals = tuple(
        reference_string(name, corner, inward, outward, vertices, arcs)
        for name, corner, inward, outward in zip("ABC", corners, (w, u, y), (v, t, z))
    )
    return OrientedGraph(vertices, arcs), terminals, corners


def _sampled_coords():
    rng = random.Random(6)
    extremes = [(x, *corners) for x in (-40, -1, 0, 1, 40) for corners in ((0,) * 6, (6,) * 6)]
    return extremes + [(rng.randint(-40, 40), *(rng.randint(0, 6) for _ in range(6)))
                       for _ in range(30)]


@pytest.mark.parametrize("coords", _sampled_coords(), ids=lambda c: ",".join(map(str, c)))
def test_net_matches_tuple_keyed_builder(coords):
    reference, terminals, corners = reference_net(coords)
    graph, positions = build_net(coords)
    assert graph.vertices == reference.vertices
    assert Counter(graph.arcs) == Counter(reference.arcs)
    assert terminal_names(graph, positions) == terminals
    n = abs(coords[0])
    mesh = (n + 1) * (n + 2) // 2
    # the mesh corners A', B', C' at their documented positions
    assert tuple(graph.vertices[p] for p in (0, n * (n + 1) // 2, mesh - 1)) == corners
    assert positions == tuple(reference._index[v] for v in terminals)
    for position in positions:
        assert graph._search(position) == _thirds_from(reference, position)


def test_net_names_read_after_a_search_match_names_read_before():
    coords = (-5, 2, 0, 1, 3, 0, 2)
    before, _ = build_net(coords)
    expected = before.vertices, before.arcs, before.to_json()
    graph, terminals = build_net(coords)
    for position in terminals:  # searches by position, as the oracle does
        graph._search(position)
    assert (graph.vertices, graph.arcs, graph.to_json()) == expected


def assert_search_matches_list_search(coords, positions=None):
    """The net's search from each of ``positions`` (all, by default) gives
    what the list search gives on the lists the net builds for a generic
    reader, and it builds none itself."""
    graph, _ = build_net(coords)
    reference, _ = build_net(coords)
    for s in range(graph._size) if positions is None else positions:
        assert graph._search(s) == _thirds_from(reference, s), (coords, s)
    assert "_fwd" not in vars(graph) and "_back" not in vars(graph)


def _small_nets():
    rng = random.Random(33)
    drawn = [(x, *(rng.randint(0, 4) for _ in range(6))) for x in range(-12, 13)]
    # x = 0: all three strings hang off the mesh's one vertex
    return drawn + [(0, 1, 2, 3, 4, 1, 2), (0, 4, 4, 4, 4, 4, 4)]


@pytest.mark.parametrize("coords", _small_nets(), ids=lambda c: ",".join(map(str, c)))
def test_net_search_matches_list_search_from_every_position(coords):
    assert_search_matches_list_search(coords)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_net_search_matches_list_search_on_large_nets(data):
    n = data.draw(st.integers(13, 45), label="n")
    x = data.draw(st.sampled_from((-n, n)), label="x")
    coords = (x, *(data.draw(st.integers(0, 6), label="corner") for _ in range(6)))
    size = len(build_net(coords).graph.vertices)
    positions = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4),
                          label="positions")
    assert_search_matches_list_search(coords, positions)


def test_the_oracle_builds_no_lists(monkeypatch):
    nets = []

    def kept(c):
        nets.append(build_net(c))
        return nets[-1]

    monkeypatch.setattr(surfacoid, "build_net", kept)
    coords = (-7, 2, 0, 3, 1, 4, 2)
    assert oracle_triangle_hive(coords) == web_to_hive_thirds(*coords)
    (graph, _), = nets
    assert "_fwd" not in vars(graph) and "_back" not in vars(graph)


def test_oracle_command_runs_without_lattice_lists(capsys, monkeypatch):
    def no_lists(rows):
        raise AssertionError("the net's lists were built")

    monkeypatch.setattr(metric, "_lattice_piece", no_lists)
    assert run(["oracle", "--coords", "40,6,6,6,6,6,6"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["match"] is True
    with pytest.raises(AssertionError, match="lists were built"):
        build_net((1, 0, 0, 0, 0, 0, 0)).graph.arcs
