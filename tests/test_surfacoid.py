import random

import pytest

from hiveweb.metric import distances_from, fermat_brute, shortest_distance
from hiveweb.surfacoid import build_net, oracle_triangle_hive
from hiveweb.thirds import Third
from hiveweb.web import TriangleWebCoords, web_to_hive_triangle


def test_zero_net_is_a_point():
    net = build_net(TriangleWebCoords(0, 0, 0, 0, 0, 0, 0))
    assert net.a == net.b == net.c == (0, 0)
    assert len(net.graph.vertices) == 1
    assert net.graph.arcs == []
    assert oracle_triangle_hive(TriangleWebCoords(0, 0, 0, 0, 0, 0, 0)).thirds() == (0,) * 7


def test_unit_honeycomb_net_is_a_directed_triangle():
    net = build_net(TriangleWebCoords(1, 0, 0, 0, 0, 0, 0))
    assert len(net.graph.vertices) == 3
    assert len(net.graph.arcs) == 3
    value, argmin = fermat_brute(net.graph, net.a, net.b, net.c)
    assert value == Third(3)
    assert argmin == {(-1, 0), (0, 0), (0, 1)}


def test_net_vertex_count_formula():
    net = build_net(TriangleWebCoords(3, 2, 1, 1, 1, 1, 1))
    # (n+1)(n+2)/2 mesh vertices plus one per string arc
    assert len(net.graph.vertices) == 10 + (1 + 1) + (1 + 1) + (2 + 1)


def test_oracle_matches_formulas_on_honeycomb_instance():
    coords = TriangleWebCoords(3, 2, 1, 1, 1, 1, 1)
    assert oracle_triangle_hive(coords) == web_to_hive_triangle(coords)


def test_oracle_matches_on_reversed_honeycomb():
    coords = TriangleWebCoords(-2, 0, 1, 0, 2, 0, 0)
    assert oracle_triangle_hive(coords) == web_to_hive_triangle(coords)


def test_oracle_equivalence_seeded_batch():
    rng = random.Random(20240901)
    for _ in range(200):
        coords = TriangleWebCoords(
            rng.randint(-3, 3), *(rng.randint(0, 2) for _ in range(6))
        )
        assert oracle_triangle_hive(coords) == web_to_hive_triangle(coords), coords


def test_boundary_straight_path_is_geodesic():
    # d(B, A) along the boundary: bottom-left string, one mesh side, top string
    for x in (-3, -1, 0, 2, 3):
        coords = TriangleWebCoords(x, 1, 2, 1, 2, 1, 2)
        net = build_net(coords)
        n = abs(x)
        mesh_leg = n if x < 0 else 2 * n  # reversed mesh flips the side's direction
        straight = (coords.u + 2 * coords.t) + mesh_leg + (2 * coords.w + coords.v)
        assert shortest_distance(net.graph, net.b, net.a) == Third(straight)


def test_tripod_minimum_attained_on_mesh():
    rng = random.Random(7)
    for _ in range(40):
        coords = TriangleWebCoords(
            rng.randint(-2, 2), *(rng.randint(0, 2) for _ in range(6))
        )
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
    coords = TriangleWebCoords(x, *corners)
    assert oracle_triangle_hive(coords) == web_to_hive_triangle(coords)
