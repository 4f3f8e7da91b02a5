import json

import pytest

from hiveweb.errors import IncompleteHive, MalformedInput
from hiveweb.hive import (
    hive_values_from_json,
    is_in_positive_cone,
    octahedron_transport,
    rhombi,
    tropical_potential,
    validate_hive,
)
from hiveweb.sampling import sample_hive
from hiveweb.surface import CENTER, build_polygon, flip_triangulation, quad_frame


A2, A5, A6, A7 = 1, 4, 5, 6  # the inner slots of a frame a1..a12, a1 at 0


def zero_hive(tri):
    return [0] * len(tri.keys)


def triangle_frame(tri, t):
    """The quiver-vertex positions of ``t`` in hive-label order a1..a7."""
    return tri.frame(t)


def as_ints(diffs):
    return tuple(d // 3 for d in diffs)


def test_rhombus_differences_zero_hive():
    h = (0,) * 7
    assert all(d == 0 for d in rhombi(*h))


def test_rhombus_differences_honeycomb_instance():
    h = (12, 10, 9, 19, 14, 13, 11)
    diffs = rhombi(*h)
    assert all(d % 3 == 0 for d in diffs)
    assert as_ints(diffs) == (1, 1, 4, 2, 1, 4, 1, 1, 4)


def test_rhombus_differences_reversed_honeycomb():
    h = (1, 2, 2, 3, 1, 1, 2)
    diffs = rhombi(*h)
    assert all(d % 3 == 0 for d in diffs)
    assert set(as_ints(diffs)) <= {0, 1}


def test_validate_zero_hive_on_pentagon():
    tri = build_polygon(5, [(0, 2), (0, 3)])
    assert validate_hive(tri, zero_hive(tri)) == []


def test_validate_flags_bumped_center():
    tri = build_polygon(5, [(0, 2), (0, 3)])
    values = zero_hive(tri)
    target = tri.triangles[0]
    frame = triangle_frame(tri, target)
    values[frame[CENTER]] = 1
    violations = validate_hive(tri, values)
    assert {v["triangle"] for v in violations} == {target}
    # the three corner rhombi go negative by 1/3 ...
    negative = {(v["rhombus"], v["thirds"]) for v in violations if v["thirds"] < 0}
    assert negative == {(1, -1), (4, -1), (7, -1)}
    # ... and the center makes every other quantity non-integral too
    assert len(violations) == 9


def test_validate_flags_non_integral_four_term():
    tri = build_polygon(3, [])
    values = zero_hive(tri)
    frame = triangle_frame(tri, tri.triangles[0])
    values[frame[2]] = 1  # a3
    violations = validate_hive(tri, values)
    assert any(v["rhombus"] == 2 and v["thirds"] == 1 for v in violations)


def test_validate_requires_every_vertex():
    tri = build_polygon(4, [(0, 2)])
    values = zero_hive(tri)
    values[0] = None
    with pytest.raises(IncompleteHive):
        validate_hive(tri, values)


def test_potential_examples():
    tri = build_polygon(3, [])
    assert tropical_potential(tri, zero_hive(tri)) == 0

    frame = triangle_frame(tri, tri.triangles[0])
    instance = (12, 10, 9, 19, 14, 13, 11)
    values = zero_hive(tri)
    for p, x in zip(frame, instance):
        values[p] = x
    assert tropical_potential(tri, values) == -3

    bumped = zero_hive(tri)
    bumped[frame[CENTER]] = 1
    assert tropical_potential(tri, bumped) == 1


def test_positive_cone_examples():
    tri = build_polygon(4, [(0, 2)])
    assert is_in_positive_cone(tri, zero_hive(tri))
    sampled = sample_hive(tri, 3, seed=11)
    assert is_in_positive_cone(tri, sampled)
    bad = zero_hive(tri)
    frame = triangle_frame(tri, tri.triangles[0])
    bad[frame[CENTER]] = 3  # drives a1+a2-a4 negative
    assert not is_in_positive_cone(tri, bad)
    assert validate_hive(tri, bad) != []


def test_transport_zero_hive_fixed():
    tri = build_polygon(4, [(0, 2)])
    _, frame_old, frame_new, _ = flip_triangulation(tri, "0-2")
    moved = octahedron_transport(dict.fromkeys(tri.keys, 0), frame_old, frame_new)
    assert all(v == 0 for v in moved.values())


def test_transport_formula_instance():
    # raw thirds on the twelve frame positions; validity is not part of this check
    tri = build_polygon(4, [(0, 2)])
    flipped, frame_old, frame_new, _ = flip_triangulation(tri, "0-2")
    raw = (0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0)
    values = dict(zip(frame_old, raw))
    moved = octahedron_transport(values, frame_old, frame_new)
    got = (
        moved[frame_new[A2]],
        moved[frame_new[A5]],
        moved[frame_new[A6]],
        moved[frame_new[A7]],
    )
    assert got == (0, -1, 0, -1)
    assert set(moved) == set(flipped.keys)


def test_transport_round_trip_is_identity():
    tri = build_polygon(4, [(0, 2)])
    for seed in range(50):
        values = dict(zip(tri.keys, sample_hive(tri, 3, seed)))
        t1, fo1, fn1, new_edge = flip_triangulation(tri, "0-2")
        moved = octahedron_transport(values, fo1, fn1)
        assert validate_hive(t1, [moved[key] for key in t1.keys]) == []
        t2, fo2, fn2, _ = flip_triangulation(t1, new_edge)
        back = octahedron_transport(moved, fo2, fn2)
        assert t2 == tri
        assert back == values


def test_triangle_frame_vertices_are_distinct():
    tri = build_polygon(5, [(0, 2), (0, 3)])
    for t in tri.triangles:
        frame = triangle_frame(tri, t)
        assert len(set(frame)) == 7


def test_quad_frame_matches_transport_carriers():
    tri = build_polygon(4, [(0, 2)])
    frame = quad_frame(tri, "0-2")
    assert frame[A5].startswith("c:") and frame[A7].startswith("c:")
    assert frame[A2].startswith("e:") and frame[A6].startswith("e:")


@pytest.mark.parametrize("alias_first", [False, True, None],
                         ids=["canonical first", "alias first", "alias alone"])
@pytest.mark.parametrize("alias", ["e:0-1:00", "e:0-1:+0", "e:0-1: 0", "e:0-1:0 ",
                                   "e:0-1:\u0660", "e:0-1:\uff10"])
def test_hive_reader_refuses_two_keys_for_one_vertex(alias, alias_first):
    """A key is read as written: a spelling that int() would read as the key
    ``e:0-1:0`` is not a vertex key, beside that key or alone."""
    pair = [("e:0-1:0", {"thirds": 1}), (alias, {"thirds": 2})]
    if alias_first is None:
        pair = pair[1:]
    first, *second = pair[::-1] if alias_first else pair
    doc = {"values": {first[0]: first[1], "c:0-1-2": {"thirds": 0}, **dict(second)}}
    with pytest.raises(MalformedInput) as caught:
        hive_values_from_json(doc)
    assert str(caught.value) == f"values: {json.dumps(alias)} is not a vertex key"


def test_hive_reader_keeps_each_vertex_key_as_written():
    values = {"e:0-1:0": {"thirds": 1}, "c:0-1-2": {"thirds": 0}, "e:a:b:1": {"thirds": -3}}
    assert hive_values_from_json({"values": values}) == {"e:0-1:0": 1, "c:0-1-2": 0,
                                                         "e:a:b:1": -3}
