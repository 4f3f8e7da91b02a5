"""The dual net and the distance oracle.

The net is built by position arithmetic with names made on demand; it is
compared with the tuple-keyed builder it replaced, kept below as the
reference.
"""

import random
from collections import Counter

import pytest

from hiveweb.metric import (
    OrientedGraph,
    _thirds_from,
    distances_from,
    fermat_brute,
    shortest_distance,
)
from hiveweb.surfacoid import build_net, oracle_triangle_hive
from hiveweb.thirds import Third
from hiveweb.web import WebTuple, web_to_hive_thirds


def test_zero_net_is_a_point():
    net = build_net((0, 0, 0, 0, 0, 0, 0))
    assert net.a == net.b == net.c == (0, 0)
    assert len(net.graph.vertices) == 1
    assert net.graph.arcs == []
    assert oracle_triangle_hive((0, 0, 0, 0, 0, 0, 0)) == (0,) * 7


def test_unit_honeycomb_net_is_a_directed_triangle():
    net = build_net((1, 0, 0, 0, 0, 0, 0))
    assert len(net.graph.vertices) == 3
    assert len(net.graph.arcs) == 3
    value, argmin = fermat_brute(net.graph, net.a, net.b, net.c)
    assert value == Third(3)
    assert argmin == {(-1, 0), (0, 0), (0, 1)}


def test_net_vertex_count_formula():
    net = build_net((3, 2, 1, 1, 1, 1, 1))
    # (n+1)(n+2)/2 mesh vertices plus one per string arc
    assert len(net.graph.vertices) == 10 + (1 + 1) + (1 + 1) + (2 + 1)


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
        net = build_net(coords)
        n = abs(x)
        mesh_leg = n if x < 0 else 2 * n  # reversed mesh flips the side's direction
        straight = (u + 2 * t) + mesh_leg + (2 * w + v)
        assert shortest_distance(net.graph, net.b, net.a) == Third(straight)


def test_tripod_minimum_attained_on_mesh():
    rng = random.Random(7)
    for _ in range(40):
        coords = (rng.randint(-2, 2), *(rng.randint(0, 2) for _ in range(6)))
        net = build_net(coords)
        value, _ = fermat_brute(net.graph, net.a, net.b, net.c)
        da = distances_from(net.graph, net.a)
        db = distances_from(net.graph, net.b)
        dc = distances_from(net.graph, net.c)
        mesh = [v for v in net.graph.vertices if isinstance(v, tuple)]
        best_on_mesh = min(
            da[v].thirds + db[v].thirds + dc[v].thirds for v in mesh
        )
        assert best_on_mesh == value.thirds


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
    net = build_net(coords)
    assert net.graph.vertices == reference.vertices
    assert Counter(net.graph.arcs) == Counter(reference.arcs)
    assert (net.a, net.b, net.c) == terminals
    assert (net.a_mesh, net.b_mesh, net.c_mesh) == corners
    assert net.terminals == tuple(reference._index[v] for v in terminals)
    for position in net.terminals:
        assert _thirds_from(net.graph, position) == _thirds_from(reference, position)


def test_net_names_read_after_a_search_match_names_read_before():
    coords = (-5, 2, 0, 1, 3, 0, 2)
    before = build_net(coords).graph
    expected = before.vertices, before.arcs, before.to_json()
    net = build_net(coords)
    for position in net.terminals:  # searches by position, as the oracle does
        _thirds_from(net.graph, position)
    assert (net.graph.vertices, net.graph.arcs, net.graph.to_json()) == expected
