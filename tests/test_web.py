import contextlib
import copy
import io
import json
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_flip_errors import SELF_GLUED, TORUS
from test_sampling import dual_cycle_complex

from hiveweb.errors import (
    GluingMismatch,
    HivewebError,
    InconsistentSide,
    InvalidHive,
    InvalidWebCoords,
    SamplingFailed,
)
from hiveweb.cli import run
from hiveweb.hive import (
    hive_thirds,
    hive_to_json,
    validate_hive,
)
from hiveweb.sampling import sample_hive
from hiveweb.surface import CENTER, SIDE_LABELS, ThetaVertex, Triangulation, build_polygon
from hiveweb.surfacoid import build_net
from hiveweb.thirds import Third, _shown
from hiveweb.web import (
    hive_to_surface_web,
    hive_to_web_triangle,
    side_arc_counts,
    surface_web_from_json,
    surface_web_thirds,
    surface_web_to_hive,
    surface_web_to_json,
    web_to_hive_thirds,
)


def test_zero_coords_give_zero_hive():
    h = web_to_hive_thirds(0, 0, 0, 0, 0, 0, 0)
    assert h == (0,) * 7


def test_honeycomb_instance():
    h = web_to_hive_thirds(3, 2, 1, 1, 1, 1, 1)
    assert h == (12, 10, 9, 19, 14, 13, 11)


def test_reversed_honeycomb_instance():
    h = web_to_hive_thirds(-1, 0, 0, 0, 0, 0, 0)
    assert h == (1, 2, 2, 3, 1, 1, 2)


def test_negative_corner_count_rejected():
    with pytest.raises(InvalidWebCoords):
        build_net((0, -1, 0, 0, 0, 0, 0))
    refused = _semantic("InvalidWebCoords", "corner count y is negative")
    for command in ("web2hive", "oracle"):
        assert _cli([command, "--coords", "0,-1,0,0,0,0,0"]) == refused


def test_inverse_examples():
    assert hive_to_web_triangle((0,) * 7) == (0, 0, 0, 0, 0, 0, 0)
    assert hive_to_web_triangle((12, 10, 9, 19, 14, 13, 11)) == (3, 2, 1, 1, 1, 1, 1)
    with pytest.raises(InvalidHive):
        hive_to_web_triangle((0, 0, 0, 1, 0, 0, 0))


def test_side_arc_count_examples():
    assert side_arc_counts(0, 0) == (0, 0)
    assert side_arc_counts(9, 12) == (2, 5)
    with pytest.raises(InconsistentSide):
        side_arc_counts(0, 3)
    with pytest.raises(InconsistentSide):
        side_arc_counts(1, 0)


def test_bijection_on_small_box():
    for x in range(-2, 3):
        for rest in product(range(3), repeat=6):
            coords = (x, *rest)
            h = web_to_hive_thirds(*coords)
            assert hive_to_web_triangle(h) == coords


def test_left_side_count_identity():
    # the a3/a1 side counts split into corner arcs plus the honeycomb strands
    for x in range(-3, 4):
        for y, z, t, u, v, w in product(range(2), repeat=6):
            h = web_to_hive_thirds(x, y, z, t, u, v, w)
            counts = side_arc_counts(h[2], h[0])  # a3, a1
            assert counts == (u + v + max(-x, 0), t + w + max(x, 0))


coords_strategy = st.tuples(
    st.integers(-6, 6), *(st.integers(0, 5) for _ in range(6))
)


@settings(deadline=None, max_examples=200)
@given(coords_strategy)
def test_round_trip_property(raw):
    coords = raw
    assert hive_to_web_triangle(web_to_hive_thirds(*coords)) == coords


def test_single_triangle_surface_reduces_to_triangle_ops():
    tri = build_polygon(3, [])
    t = tri.triangles[0]
    coords = (2, 1, 0, 1, 0, 2, 1)
    values = surface_web_thirds(tri, {t: coords})
    expected = web_to_hive_thirds(*coords)
    assert tuple(values[p] for p in tri.frame(t)) == expected
    assert validate_hive(tri, values) == []


def test_gluing_mismatch_names_edge_and_pairs():
    tri = build_polygon(4, [(0, 2)])
    t0, t1 = tri.triangles
    web = {
        t0: (0, 0, 0, 0, 0, 0, 0),
        t1: (1, 0, 0, 0, 0, 0, 0),
    }
    with pytest.raises(GluingMismatch) as err:
        surface_web_thirds(tri, web)
    assert str(err.value) == 'edge "0-2": side counts [0,1] and [0,0] do not glue'


def test_surface_round_trip_on_pentagon():
    tri = build_polygon(5, [(0, 2), (0, 3)])
    for seed in range(60):
        values = sample_hive(tri, 2, seed)
        web = hive_to_surface_web(tri, values)
        assert surface_web_thirds(tri, web) == values


def test_hive_to_surface_web_requires_validity():
    tri = build_polygon(4, [(0, 2)])
    values = [0] * len(tri.keys)
    values[tri.frame(tri.triangles[0])[CENTER]] = 1
    with pytest.raises(InvalidHive):
        hive_to_surface_web(tri, values)


# -- the dict forms against the int lists, and each function against the CLI --

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@st.composite
def polygons(draw):
    """A triangulated m-gon, m <= 40, split recursively at drawn apexes."""
    m = draw(st.integers(3, 40))
    diagonals, stack = [], [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo >= 2:
            k = draw(st.integers(lo + 1, hi - 1))
            for a, b in ((lo, k), (k, hi)):
                if b - a >= 2:
                    diagonals.append((a, b))
                    stack.append((a, b))
    return build_polygon(m, diagonals)


@settings(max_examples=40, deadline=None)
@given(polygons(), st.integers(0, 3), st.integers(-(2**64), 2**64))
def test_int_cores_match_the_public_functions(tri, bound, seed):
    """The dict form of a hive (thirds by vertex key) gives what the int
    lists give, ``surface_web_to_hive`` writes them as ``Third`` by
    ``ThetaVertex``, and each exported function writes the CLI's bytes."""
    tri = Triangulation.from_json(tri.to_json())  # as the CLI reads it, triangles sorted
    values = sample_hive(tri, bound, seed)
    as_dict = dict(zip(tri.keys, values))
    assert hive_thirds(tri, as_dict) == values
    web = hive_to_surface_web(tri, values)
    assert hive_to_surface_web(tri, as_dict) == web
    assert surface_web_thirds(tri, web) == values
    assert surface_web_to_hive(tri, web) == dict(zip(map(ThetaVertex.parse, tri.keys),
                                                      map(Third, values)))

    with tempfile.TemporaryDirectory() as workdir:
        t, h, w = (Path(workdir) / name for name in ("t.json", "h.json", "w.json"))
        t.write_text(json.dumps(tri.to_json()))
        code, sampled, _ = _cli(["sample", "--triangulation", str(t),
                                 "--bound", str(bound), "--seed", str(seed)])
        assert (code, sampled) == (0, _canonical(hive_to_json(tri, values)))
        h.write_text(sampled)
        code, webbed, _ = _cli(["hive2web", "--hive", str(h)])
        assert (code, webbed) == (0, _canonical(surface_web_to_json(tri, web)))
        w.write_text(webbed)
        code, back, _ = _cli(["web2hive", "--web", str(w)])
        glued = surface_web_thirds(tri, surface_web_from_json(json.loads(webbed)))
        assert (code, back) == (0, _canonical(hive_to_json(tri, glued)))


def reference_surface_web_thirds(tri, coords):
    """The gluing written edge by edge: each interior edge's two sides are
    compared in ``tri.edges`` order, the first attachment's pair is written
    at the edge's slots, then every center; the reference for
    :func:`surface_web_thirds`, which writes whole cells through their
    frames."""
    for t in tri.triangles:
        if t not in coords:
            raise InvalidWebCoords(f"no coordinates for triangle {_shown(t)}")
    frames = tri.check()
    thirds = [None] * len(tri.keys)
    hives = {t: web_to_hive_thirds(*coords[t]) for t in tri.triangles}

    def near_far(t, s):
        near, far = SIDE_LABELS[s]
        return hives[t][near], hives[t][far]

    for rec in tri.edges:
        v0 = near_far(*rec.attach0)
        if rec.attach1 is not None:
            v1 = near_far(*rec.attach1)
            if v0 != v1[::-1]:  # the second attachment walks the edge head -> tail
                raise GluingMismatch(f"edge {_shown(rec.id)}: side counts "
                                     f"{_shown([*side_arc_counts(*v0)])} and "
                                     f"{_shown([*side_arc_counts(*v1)])} do not glue")
        p = tri.slot0[rec.id]
        thirds[p], thirds[p + 1] = v0
    for t in tri.triangles:
        thirds[frames[t][CENTER]] = hives[t][CENTER]
    return thirds


# the self-glued cell's sides 0 and 1 are one edge, so its a2 = a6 and a5 = a7:
# its webs that glue are those with v = t - x and w = u + x
SELF_GLUED_CELL = Triangulation.from_json(SELF_GLUED)
CLOSED_UP = [Triangulation.from_json(TORUS), dual_cycle_complex(), SELF_GLUED_CELL]
corner_counts = st.integers(0, 3)


@st.composite
def glued_webs(draw):
    """A complex with its triangle and edge lists shuffled, and a web that
    glues on it: sampled with box bound K <= 3, or on the self-glued cell,
    where the sampler refuses, drawn from the webs that glue there."""
    tri = draw(st.one_of(polygons(), st.sampled_from(CLOSED_UP)))
    if tri is SELF_GLUED_CELL:
        x = draw(st.integers(-3, 3))
        t, u = draw(corner_counts) + max(x, 0), draw(corner_counts) + max(-x, 0)
        web = {"A": (x, draw(corner_counts), draw(corner_counts), t, u, t - x, u + x)}
    else:
        try:
            web = hive_to_surface_web(tri, sample_hive(tri, draw(st.integers(0, 3)),
                                                       draw(st.integers(0, 2**32))))
        except SamplingFailed:  # the dual cycle's last cell may have no fit
            assume(False)
    tri = Triangulation(draw(st.permutations(tri.triangles)), draw(st.permutations(tri.edges)),
                        tri.signature)
    return tri, web


def _outcome(glue, tri, coords):
    """What ``glue`` returns, or the type and text of the error it raises."""
    try:
        return glue(tri, coords)
    except HivewebError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=60, deadline=None)
@given(glued_webs(), st.data())
def test_gluing_through_the_frames_matches_the_edge_by_edge_reference(case, data):
    """Sampled webs glue to the same thirds; with one to three cells'
    coordinates redrawn, both return the same thirds or raise the same
    error with the same text."""
    tri, web = case
    assert surface_web_thirds(tri, web) == reference_surface_web_thirds(tri, web)
    redrawn = data.draw(st.permutations(tri.triangles))[:data.draw(st.integers(1, 3))]
    cell = st.tuples(st.integers(-3, 3), *[corner_counts] * 6)
    web = {**web, **{t: data.draw(cell) for t in redrawn}}
    assert (_outcome(surface_web_thirds, tri, web)
            == _outcome(reference_surface_web_thirds, tri, web))


HEXAGON = build_polygon(6, [(0, 2), (2, 4), (0, 4)])
HEXAGON_WEB = surface_web_to_json(HEXAGON, hive_to_surface_web(HEXAGON, sample_hive(HEXAGON, 2, 1)))


def _broken_web(*changes):
    """A copy of ``HEXAGON_WEB`` with each change applied to its coordinates
    and its triangulation."""
    doc = copy.deepcopy(HEXAGON_WEB)
    for change in changes:
        change(doc["coords"], doc["triangulation"])
    return doc


def _drop_coords(coords, tri):
    tri["triangles"].reverse()  # the first missing one in document order is named
    del coords["0-1-2"], coords["2-3-4"]


def _extra_negative(coords, tri):
    coords["9-9-9"] = dict(x=0, y=-1, z=0, t=0, u=0, v=0, w=0)


def _center_disagrees(coords, tri):
    # the middle triangle now disagrees with all three neighbours; edge 2-4,
    # listed first, is the one named, though 0-2 is met first by triangle
    coords["0-2-4"]["x"] += 1
    tri["edges"].sort(key=lambda e: e["id"] != "2-4")


def _slot_1_disagrees(coords, tri):
    c = coords["0-1-2"]  # an ear: its only interior edge is 0-2
    c["x"], c["v"], c["w"] = c["x"] - 1, c["v"] + 1, c["w"] - 1  # keeps slot 0 of 0-2


def _side_unattached(coords, tri):
    edge = next(e for e in tri["edges"] if e["id"] == "0-1")
    edge["attach"][0][1] = 3  # side 0 of 0-1-2 is left without an edge


def _later_side_unattached(coords, tri):
    edge = next(e for e in tri["edges"] if e["id"] == "4-5")
    edge["attach"][0][1] += 3
    tri["edges"].sort(key=lambda e: e["id"] != "4-5")


def _unknown_triangle(edge_id, k):
    def change(coords, tri):
        edge = next(e for e in tri["edges"] if e["id"] == edge_id)
        edge["attach"][k][0] = "9-9-9"  # a triangle the document does not list
    return change


def _set(key, value):
    def change(coords, tri):
        coords["0-2-4"][key] = value
    return change


def _drop_w(coords, tri):
    del coords["0-2-4"]["w"]


def _semantic(error, detail):
    return 1, _canonical({"error": error, "detail": detail}), ""


def _unsound(*violations):
    """The structural gate's refusal of a complex whose ``validate
    --triangulation`` report is ``violations``: it comes before any gluing."""
    shown = json.dumps(violations[:3], sort_keys=True, separators=(",", ":"))
    return _semantic("InvalidTriangulation",
                     f"triangulation has {len(violations)} structural violations: {shown}")


def _side(edge, t, side, bare):
    """A report's two lines for an edge moved from side ``bare`` of ``t`` to ``side``."""
    return ({"kind": "bad-side-index", "edge": edge, "triangle": t, "side": side},
            {"kind": "dangling-side", "triangle": t, "side": bare})


def _cell(edge, t, bare):
    """A report's two lines for an edge moved from side ``bare`` of ``t`` to an unlisted cell."""
    return ({"kind": "unknown-triangle", "edge": edge, "triangle": "9-9-9"},
            {"kind": "dangling-side", "triangle": t, "side": bare})


WEB_ERROR_ROWS = {
    "missing triangle": ((_drop_coords,), _semantic(
        "InvalidWebCoords", 'no coordinates for triangle "2-3-4"')),
    "negative corner count in an extra triangle": ((_extra_negative,), _semantic(
        "InvalidWebCoords", "corner count y is negative")),
    "gluing mismatch on the first edge in order": ((_center_disagrees,), _semantic(
        "GluingMismatch", 'edge "2-4": side counts [1,4] and [3,1] do not glue')),
    "gluing mismatch in slot 1 alone": ((_slot_1_disagrees,), _semantic(
        "GluingMismatch", 'edge "0-2": side counts [3,3] and [5,2] do not glue')),
    # the structure is decided before any edge is glued, whatever the list order
    "unattached side": ((_side_unattached,), _unsound(*_side("0-1", "0-1-2", 3, 0))),
    "unattached side before a mismatch": ((_center_disagrees, _later_side_unattached),
                                          _unsound(*_side("4-5", "0-4-5", 4, 1))),
    "mismatch before an unattached side": ((_side_unattached, _center_disagrees),
                                           _unsound(*_side("0-1", "0-1-2", 3, 0))),
    "edge attached to an unknown triangle": ((_unknown_triangle("0-1", 0),),
                                             _unsound(*_cell("0-1", "0-1-2", 0))),
    "second attachment to an unknown triangle": ((_unknown_triangle("0-2", 1),),
                                                 _unsound(*_cell("0-2", "0-1-2", 2))),
    "unknown triangle before its edge's mismatch": (
        (_center_disagrees, _unknown_triangle("2-4", 1)), _unsound(*_cell("2-4", "2-3-4", 2))),
    "mismatch before an unknown triangle": (
        (_center_disagrees, _unknown_triangle("0-1", 0)), _unsound(*_cell("0-1", "0-1-2", 0))),
    "missing triangle before an unknown triangle": (
        (_drop_coords, _unknown_triangle("0-1", 0)), _semantic(
            "InvalidWebCoords", 'no coordinates for triangle "2-3-4"')),
    "non-integer strand counts": ((_set("x", 0.5),), (
        2, "", "hiveweb: x: expected an integer, got 0.5\n")),
    "non-int coordinate": ((_set("x", "1"),), (
        2, "", 'hiveweb: x: expected an integer, got "1"\n')),
    "missing key": ((_drop_w,), (2, "", 'hiveweb: coords of "0-2-4": no w\n')),
}


@pytest.mark.parametrize("command", ["web2hive", "validate"])
@pytest.mark.parametrize("changes,expected", WEB_ERROR_ROWS.values(), ids=WEB_ERROR_ROWS)
def test_surface_web_errors_keep_their_output(command, changes, expected, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(_broken_web(*changes)))
    code, out, err = _cli([command, "--web", str(path)])
    assert (code, out, err.replace(str(path), "{doc}")) == expected
