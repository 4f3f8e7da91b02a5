import contextlib
import io
import json
import random

import pytest

from hiveweb.cli import run
from hiveweb.errors import (
    InvalidPolygonTriangulation,
    InvalidTriangulation,
    NotFlippable,
    SelfFoldedUnsupported,
)
from hiveweb.surface import (
    EdgeRec,
    ThetaVertex,
    Triangulation,
    build_polygon,
    flip_triangulation,
    quad_frame,
    validate_complex,
)

A2, A6 = 1, 5  # the diagonal's vertices near P and Q in a frame a1..a12, a1 at 0


def test_theta_vertex_keys_round_trip():
    c = ThetaVertex.center("0-1-2")
    e = ThetaVertex.edge("0-2", 1)
    assert ThetaVertex.parse(c.key()) == c
    assert ThetaVertex.parse(e.key()) == e
    with pytest.raises(ValueError):
        ThetaVertex.edge("0-2", 2)


def test_triangle_is_forced():
    t = build_polygon(3, [])
    assert len(t.triangles) == 1
    assert len(t.edges) == 3
    assert len(t.keys) == 7
    assert not validate_complex(t)


def test_quadrilateral_counts():
    t = build_polygon(4, [(0, 2)])
    assert len(t.triangles) == 2
    assert len(t.edges) == 5
    assert len(t.keys) == 12
    assert t.signature == (0, 1, 4)
    assert not validate_complex(t)


def test_pentagon_counts():
    t = build_polygon(5, [(0, 2), (0, 3)])
    assert len(t.triangles) == 3
    assert len(t.edges) == 7
    assert len(t.keys) == 17


@pytest.mark.parametrize(
    "m, diagonals",
    [
        (4, []),                      # not maximal
        (4, [(0, 1)]),                # a side, not a diagonal
        (5, [(0, 2), (1, 3)]),        # crossing
        (5, [(0, 2), (0, 2)]),        # duplicate
        (5, [(0, 2), (0, 3), (1, 4)]),  # too many
        (2, []),                      # not a polygon
    ],
)
def test_bad_polygon_input(m, diagonals):
    with pytest.raises(InvalidPolygonTriangulation):
        build_polygon(m, diagonals)


def test_validate_reports_double_attachment():
    t = build_polygon(4, [(0, 2)])
    # re-point one boundary edge at an already-attached slot
    broken = []
    for rec in t.edges:
        if rec.id == "0-1":
            broken.append(EdgeRec(rec.id, rec.tail, rec.head, ("0-1-2", 1), None))
        else:
            broken.append(rec)
    kinds = {v["kind"] for v in validate_complex(Triangulation(t.triangles, broken))}
    assert "double-attached-side" in kinds
    assert "dangling-side" in kinds


def test_validate_reports_count_mismatch():
    t = build_polygon(4, [(0, 2)])
    violations = validate_complex(Triangulation(t.triangles, t.edges, signature=(0, 1, 5)))
    assert any(v["kind"] == "count-mismatch" for v in violations)


def _edge(eid, tail, head, *attach):
    return {"id": eid, "tail": tail, "head": head, "attach": list(attach)}


# the once-punctured torus: one marked point v, off every boundary
PUNCTURED_TORUS = {"triangles": ["A", "B"], "signature": {"g": 1, "c": 0, "m": 1}, "edges": [
    _edge("a", "v", "v", ["A", 0], ["B", 1]),
    _edge("b", "v", "v", ["A", 1], ["B", 2]),
    _edge("c", "v", "v", ["B", 0], ["A", 2]),
]}
# the square 0-1-2-3 coned to one puncture p: cell t<k> has corners k, k+1, p
PUNCTURED_SQUARE = {"triangles": [f"t{k}" for k in range(4)],
                    "signature": {"g": 0, "c": 1, "m": 5}, "edges": [
    *(_edge(f"{k}-{(k + 1) % 4}", k, (k + 1) % 4, [f"t{k}", 0], "boundary") for k in range(4)),
    *(_edge(f"{k}-p", k, "p", [f"t{(k - 1) % 4}", 1], [f"t{k}", 2]) for k in range(4)),
]}


@pytest.mark.parametrize("doc, triangles, edges", [
    (PUNCTURED_TORUS, 2, 3), (PUNCTURED_SQUARE, 4, 8),
], ids=["torus", "punctured square"])
def test_the_census_counts_each_puncture(doc, triangles, edges):
    """A puncture, a marked point off the boundary, adds one triangle and one
    edge to the census of a surface whose marked points are on its rim."""
    t = Triangulation.from_json(doc)
    assert (len(t.triangles), len(t.edges)) == (triangles, edges)
    assert validate_complex(t) == []
    g, c, m = t.signature
    # one more marked point on the rim, as the census read it before
    assert validate_complex(Triangulation(t.triangles, t.edges, (g, c, m + 1))) == [
        {"kind": "count-mismatch", "field": "triangles", "have": triangles, "want": triangles + 1},
        {"kind": "count-mismatch", "field": "edges", "have": edges, "want": edges + 2}]


def test_a_faulty_punctured_surface_still_counts_its_puncture():
    """A structural fault leaves corners without a label, so the census
    reads the labels of the corners whose two sides agree: the torus's
    puncture v still counts, and its signature earns no count mismatch."""
    doc = json.loads(json.dumps(PUNCTURED_TORUS))
    doc["edges"][2]["attach"][1] = ["A", 5]
    assert validate_complex(Triangulation.from_json(doc)) == [
        {"kind": "bad-side-index", "edge": "c", "triangle": "A", "side": 5},
        {"kind": "dangling-side", "triangle": "A", "side": 2}]


# every kind but the corners at once: "0-1" enters side 0 of 0-1-2 by its
# second attachment, before "y" and "x" enter it too
MANY_FAULTS = {"triangles": ["0-2-3", "0-1-2"], "signature": {"g": 0, "c": 1, "m": 4}, "edges": [
    _edge("1-2", 1, 2, ["0-1-2", 1], "boundary"),
    _edge("0-3", 3, 0, ["0-2-3", 5], "boundary"),
    _edge("0-1", 0, 1, ["9-9-9", 0], ["0-1-2", 0]),
    _edge("0-2", 0, 2, ["0-2-3", 0], ["0-1-2", 2]),
    _edge("y", 0, 1, ["0-1-2", 0], "boundary"),
    _edge("2-3", 2, 3, ["0-2-3", 1], "boundary"),
    _edge("x", 0, 1, ["0-1-2", 0], "boundary"),
]}
# the pentagon with three labels changed: only corners disagree
CORNER_FAULTS = {"triangles": ["0-3-4", "0-2-3", "0-1-2"], "signature": {"g": 0, "c": 1, "m": 5},
                 "edges": [_edge("0-1", 0, 1, ["0-1-2", 0], "boundary"),
                           _edge("0-2", 0, 2, ["0-2-3", 0], ["0-1-2", 2]),
                           _edge("0-3", "zero", 3, ["0-3-4", 0], ["0-2-3", 2]),
                           _edge("0-4", 4, 0, ["0-3-4", 2], "boundary"),
                           _edge("1-2", 1, 5, ["0-1-2", 1], "boundary"),
                           _edge("2-3", 2, 3, ["0-2-3", 1], "boundary"),
                           _edge("3-4", "three", 4, ["0-3-4", 1], "boundary")]}
# MANY_FAULTS with 0-1-2 listed twice and x three times: only the repeats are
# reported, each once
REPEATED_IDS = {**MANY_FAULTS, "triangles": ["0-2-3", "0-1-2", "0-1-2"], "edges": [
    *MANY_FAULTS["edges"], MANY_FAULTS["edges"][-1], MANY_FAULTS["edges"][0],
    MANY_FAULTS["edges"][-1]]}
# (the document, what validate --triangulation prints, the gate's error)
FAULT_REPORTS = {
    "many faults": (
        MANY_FAULTS,
        '{"valid":false,"violations":['
        '{"edge":"0-3","kind":"bad-side-index","side":5,"triangle":"0-2-3"},'
        '{"edge":"0-1","kind":"unknown-triangle","triangle":"9-9-9"},'
        '{"kind":"dangling-side","side":2,"triangle":"0-2-3"},'
        '{"edges":["0-1","y","x"],"kind":"double-attached-side","side":0,"triangle":"0-1-2"},'
        '{"field":"edges","have":7,"kind":"count-mismatch","want":5}]}\n',
        'triangulation has 5 structural violations: ['
        '{"edge":"0-1","kind":"unknown-triangle","triangle":"9-9-9"},'
        '{"edge":"0-3","kind":"bad-side-index","side":5,"triangle":"0-2-3"},'
        '{"edges":["0-1","x","y"],"kind":"double-attached-side","side":0,"triangle":"0-1-2"}]'),
    "corners only": (
        CORNER_FAULTS,
        '{"valid":false,"violations":['
        '{"corner":0,"kind":"corner-mismatch","labels":["zero",0],"triangle":"0-3-4"},'
        '{"corner":1,"kind":"corner-mismatch","labels":["three",3],"triangle":"0-3-4"},'
        '{"corner":0,"kind":"corner-mismatch","labels":[0,"zero"],"triangle":"0-2-3"},'
        '{"corner":2,"kind":"corner-mismatch","labels":[2,5],"triangle":"0-1-2"}]}\n',
        'triangulation has 4 structural violations: ['
        '{"corner":2,"kind":"corner-mismatch","labels":[2,5],"triangle":"0-1-2"},'
        '{"corner":0,"kind":"corner-mismatch","labels":[0,"zero"],"triangle":"0-2-3"},'
        '{"corner":0,"kind":"corner-mismatch","labels":["zero",0],"triangle":"0-3-4"}]'),
    "repeated ids": (
        REPEATED_IDS,
        '{"valid":false,"violations":[{"kind":"duplicate-id","triangle":"0-1-2"},'
        '{"edge":"x","kind":"duplicate-id"},{"edge":"1-2","kind":"duplicate-id"}]}\n',
        'triangulation has 3 structural violations: [{"kind":"duplicate-id","triangle":"0-1-2"},'
        '{"edge":"1-2","kind":"duplicate-id"},{"edge":"x","kind":"duplicate-id"}]'),
}


def test_a_repeated_id_constructs_and_is_the_walks_finding():
    tri = Triangulation(["a", "a"], [])
    assert validate_complex(tri) == [{"kind": "duplicate-id", "triangle": "a"}]
    with pytest.raises(InvalidTriangulation):
        tri.check()


@pytest.mark.parametrize("doc,report,refusal", FAULT_REPORTS.values(), ids=FAULT_REPORTS)
def test_fault_reports_in_list_order_and_the_gate_by_content(doc, report, refusal, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["validate", "--triangulation", str(path)]) == 1
    assert out.getvalue() == report
    rng = random.Random(0)
    for _ in range(4):
        shuffled = json.loads(json.dumps(doc))
        rng.shuffle(shuffled["edges"])
        rng.shuffle(shuffled["triangles"])
        with pytest.raises(InvalidTriangulation) as info:
            Triangulation.from_json(shuffled).check()
        assert str(info.value) == refusal


def test_theta_index_is_stable():
    t = build_polygon(6, [(0, 2), (2, 4), (0, 4)])
    first = t.keys
    assert first == t.keys
    assert first == build_polygon(6, [(0, 4), (0, 2), (2, 4)]).keys
    assert len(first) == len(set(first)) == 2 * 9 + 4


def test_json_round_trip():
    t = build_polygon(5, [(1, 3), (1, 4)])
    doc = t.to_json()
    assert Triangulation.from_json(doc) == t
    assert [e["id"] for e in doc["edges"]] == sorted(e["id"] for e in doc["edges"])


def test_flip_quadrilateral_switches_diagonal():
    t = build_polygon(4, [(0, 2)])
    flipped, frame_old, _, new_edge = flip_triangulation(t, "0-2")
    assert (frame_old[A2], frame_old[A6]) == ("e:0-2:1", "e:0-2:0")
    assert new_edge == "1-3"
    assert flipped == build_polygon(4, [(1, 3)])


def test_flip_is_an_involution_on_the_complex():
    t = build_polygon(4, [(0, 2)])
    once, _, _, new_edge = flip_triangulation(t, "0-2")
    twice = flip_triangulation(once, new_edge)[0]
    assert twice == t
    assert twice.keys == t.keys


SQUARE = build_polygon(4, [(0, 2)])
SQUARE_DOC = SQUARE.to_json()


def _relabelled(label):
    """The square with corner 1 labelled ``label``."""
    return Triangulation.from_json({**SQUARE_DOC, "edges": [
        {**e, **{end: label for end in ("tail", "head") if e[end] == 1}}
        for e in SQUARE_DOC["edges"]]})


# pairs whose documents differ, and so compare unequal
UNEQUAL = {
    "triangle 0-1-2 and edge 0-1 listed twice": (
        Triangulation([*SQUARE.triangles, "0-1-2"], [*SQUARE.edges, SQUARE.edge("0-1")],
                      SQUARE.signature), SQUARE),
    "label 1 and label \"1\"": (_relabelled(1), _relabelled("1")),
    "side 1 and side true": (
        Triangulation(SQUARE.triangles, [e._replace(attach0=(e.attach0[0], True))
                                         if e.attach0[1] == 1 else e for e in SQUARE.edges],
                      SQUARE.signature), SQUARE),
    "no signature": (Triangulation(SQUARE.triangles, SQUARE.edges), SQUARE),
}


@pytest.mark.parametrize("a,b", UNEQUAL.values(), ids=UNEQUAL)
def test_triangulations_that_write_different_documents_are_unequal(a, b):
    assert a.to_text() != b.to_text()
    assert a != b and b != a


def test_equality_ignores_list_order():
    t = build_polygon(6, [(0, 2), (2, 4), (0, 4)])
    assert Triangulation(t.triangles[::-1], t.edges[::-1], t.signature) == t


def test_flip_boundary_edge_rejected():
    t = build_polygon(4, [(0, 2)])
    with pytest.raises(NotFlippable):
        flip_triangulation(t, "0-1")


def test_flip_self_glued_rejected():
    edges = [
        EdgeRec("loop", "v", "v", ("A", 0), ("A", 1)),
        EdgeRec("b2", "v", "v", ("A", 2), None),
    ]
    t = Triangulation(["A"], edges)
    with pytest.raises(SelfFoldedUnsupported):
        flip_triangulation(t, "loop")


def test_quad_frame_has_twelve_distinct_vertices():
    t = build_polygon(5, [(0, 2), (0, 3)])
    for edge_id in ("0-2", "0-3"):
        frame = quad_frame(t, edge_id)
        assert len(set(frame)) == 12
        assert frame[A6] == ThetaVertex.edge(edge_id, 0).key()
        assert frame[A2] == ThetaVertex.edge(edge_id, 1).key()


def test_flip_path_independence_of_labels():
    # both routes from the fan {0-2, 0-3} to {1-3, 1-4} give identical data
    t = build_polygon(5, [(0, 2), (0, 3)])
    a = flip_triangulation(t, "0-2")[0]
    a = flip_triangulation(a, "0-3")[0]
    b = flip_triangulation(t, "0-3")[0]
    b = flip_triangulation(b, "0-2")[0]
    b = flip_triangulation(b, "2-4")[0]
    assert a == b
