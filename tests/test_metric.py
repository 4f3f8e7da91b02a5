import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiveweb.errors import OmegaEmpty, Unreachable
from hiveweb.hive import tropical_potential
from hiveweb.metric import (
    OrientedGraph,
    distances_from,
    fermat_brute,
    fermat_closed_form,
    gamma_distance,
    gamma_window,
    omega_points,
    shortest_distance,
)
from hiveweb.surface import build_polygon


def test_single_arc_costs():
    g = OrientedGraph(["u", "v"], [("u", "v")])
    assert shortest_distance(g, "u", "v") == 1
    assert shortest_distance(g, "v", "u") == 2


def test_directed_three_cycle():
    g = OrientedGraph("uvw", [("u", "v"), ("v", "w"), ("w", "u")])
    # two candidate routes: with the arcs (1/3 + 1/3) or against one (2/3)
    assert shortest_distance(g, "u", "w") == 2
    assert shortest_distance(g, "w", "u") == 1


def test_isolated_vertices_unreachable():
    g = OrientedGraph(["a", "b"], [])
    with pytest.raises(Unreachable):
        shortest_distance(g, "a", "b")


def test_parallel_arcs_allowed():
    g = OrientedGraph(["a", "b"], [("a", "b"), ("a", "b")])
    assert shortest_distance(g, "a", "b") == 1


def test_unknown_vertex_is_key_error():
    g = OrientedGraph(["a"], [])
    with pytest.raises(KeyError):
        shortest_distance(g, "a", "zz")


@pytest.mark.parametrize(
    "point, thirds",
    [((0, 0), 0), ((2, 1), 3), ((-1, 0), 2), ((1, 1), 2), ((-2, -2), 2), ((3, -1), 5)],
)
def test_gamma_distance_closed_form(point, thirds):
    assert gamma_distance(*point) == thirds


def test_gamma_distance_matches_window_dijkstra():
    for x in range(-3, 4):
        for y in range(-3, 4):
            radius = abs(x) + abs(y) + 2
            g = gamma_window(radius)
            d = shortest_distance(g, "0,0", f"{x},{y}")
            assert d == gamma_distance(x, y), (x, y)


def test_a_negative_window_radius_is_refused():
    with pytest.raises(ValueError, match="radius must be non-negative"):
        gamma_window(-1)


def test_straight_axis_path_is_geodesic():
    g = gamma_window(9)
    for p in range(4):
        for q in range(4):
            d = shortest_distance(g, f"0,{p}", f"{q},0")
            assert d == 2 * p + q, (p, q)


def test_fermat_closed_form_examples():
    origin = (0, 0)
    assert fermat_closed_form(origin, origin, origin) == 0
    assert fermat_closed_form(origin, (2, 0), (0, 2)) == 8
    with pytest.raises(OmegaEmpty):
        fermat_closed_form(origin, (-1, 0), (0, -1))


def test_fermat_brute_agrees_on_window():
    g = gamma_window(6)
    value, argmin = fermat_brute(g, "0,0", "2,0", "0,2")
    assert value == 8
    expected = {f"{x},{y}" for x, y in omega_points((0, 0), (2, 0), (0, 2), 6)}
    assert argmin == expected
    assert len(expected) == 9  # the whole 3x3 box minimizes here


def test_fermat_brute_single_vertex():
    g = OrientedGraph(["only"], [])
    assert fermat_brute(g, "only", "only", "only") == (0, {"only"})


def test_fermat_brute_unreachable_triple():
    g = OrientedGraph(["a", "b"], [])
    with pytest.raises(Unreachable):
        fermat_brute(g, "a", "b", "a")


graphs = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=12,
        ),
    )
)


@settings(deadline=None, max_examples=60)
@given(graphs)
def test_metric_axioms_on_random_graphs(data):
    n, extra = data
    # a path guarantees weak connectivity, so every pair has a distance
    arcs = [(i, i + 1) for i in range(n - 1)] + extra
    g = OrientedGraph(range(n), arcs)
    dist = {v: distances_from(g, v) for v in range(n)}
    for a in range(n):
        for b in range(n):
            d_ab = dist[a][b]
            assert d_ab >= 0
            assert (d_ab == 0) == (a == b)
            for c in range(n):
                assert d_ab + dist[b][c] >= dist[a][c]


def test_every_value_is_a_plain_int():
    """Distances, Fermat minima and the tropical potential are ints in thirds."""
    g = gamma_window(4)
    tri = build_polygon(3, [])
    values = [
        gamma_distance(3, -1),
        shortest_distance(g, "0,0", "2,1"),
        *distances_from(g, "0,0").values(),
        fermat_closed_form((0, 0), (2, 0), (0, 2)),
        fermat_brute(g, "0,0", "2,0", "0,2")[0],
        tropical_potential(tri, [0] * len(tri.keys)),
    ]
    assert [type(v) for v in values] == [int] * len(values)
