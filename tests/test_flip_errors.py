"""Every error a flip can report, with its exact text.

Small hand-built triangulation documents go through ``hiveweb flip``, which
exits 1 and prints the error's type and detail; the transport's missing-value
error is reached through the library.  The square below is the quadrilateral
0-1-2-3 with diagonal 0-2: Q = 0, P = 2, R = 3 and S = 1, and its outer sides
P->R, S->P, R->Q, Q->S lie on the edges 2-3, 1-2, 0-3 and 0-1.  After the
edge lookup, a flip of a complex that ``validate --triangulation`` refuses is
refused by the structural gate, which names the count and the first three
violations of that report for the lists in canonical order.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from hiveweb.cli import run
from hiveweb.errors import InvalidHive, InvalidTriangulation
from hiveweb.hive import octahedron_transport
from hiveweb.sampling import sample_hive
from hiveweb.surface import Triangulation, build_polygon, flip_triangulation, quad_frame

SQUARE = build_polygon(4, [(0, 2)])
A3, A9 = 2, 8  # slots of a frame a1..a12, a1 at 0


def _square(*changes):
    """The square's document with each change applied to its edge list."""
    doc = SQUARE.to_json()
    for change in changes:
        change({e["id"]: e for e in doc["edges"]})
    return doc


def _unattach(edge_id):
    def change(edges):
        edges[edge_id]["attach"][0][1] += 3  # its side is left without an edge
    return change


def _rename(edges):
    edges["0-3"]["id"] = "1-3"


def _relabel_diagonal_head(edges):
    edges["0-2"]["head"] = 7


def _relabel_outer_head(edges):
    edges["0-1"]["head"] = 7  # a boundary side of 0-1-2 only


def _alternate_labels(edges):
    for e in edges.values():
        e["tail"], e["head"] = "xyxy"[e["tail"]], "xyxy"[e["head"]]


SELF_GLUED = {"triangles": ["A"], "edges": [
    {"id": "loop", "tail": "v", "head": "v", "attach": [["A", 0], ["A", 1]]},
    {"id": "b", "tail": "v", "head": "v", "attach": [["A", 2], "boundary"]},
]}


def _relabelled(doc, labels):
    """``doc`` with marked point i of each edge's ends renamed ``labels[i]``."""
    for e in doc["edges"]:
        e["tail"], e["head"] = labels[e["tail"]], labels[e["head"]]
    return doc


OCTAGON = build_polygon(8, [(1, 7), (1, 4), (1, 5), (2, 4), (5, 7)])
# an 8-gon that validates; the flip of 2-4 would make the cell 5-6-7 from the
# labels '7', '5' and 6, an id that a cell the flip keeps already has
RELABELLED_OCTAGON = _relabelled(OCTAGON.to_json(), [3, "7", "5", 6, 4, 2, "0", "1"])
# the same 8-gon under other labels: the new diagonal joins 7 and '6', which
# read as 6-7 (labels that do not compare go by repr), the id of a kept edge
RELABELLED_OCTAGON_EDGE = _relabelled(OCTAGON.to_json(), [3, 7, "5", "6", 4, 2, "0", "1"])
# a once-punctured torus: two triangles glued along all three of their sides
TORUS = {"triangles": ["A", "B"], "edges": [
    {"id": "a", "tail": "v", "head": "v", "attach": [["A", 0], ["B", 1]]},
    {"id": "b", "tail": "v", "head": "v", "attach": [["A", 1], ["B", 2]]},
    {"id": "c", "tail": "v", "head": "v", "attach": [["B", 0], ["A", 2]]},
]}
# cells that validate rejects; the diagonal 0-2 walks side 0 of 0-2-3 and side 2 of 0-1-2
INCOHERENT_CELLS = {
    "diagonal at side 3": (_square(_unattach("0-2")), (
        'triangulation has 2 structural violations: '
        '[{"edge":"0-2","kind":"bad-side-index","side":3,"triangle":"0-2-3"},'
        '{"kind":"dangling-side","side":0,"triangle":"0-2-3"}]')),
    "diagonal head relabelled": (_square(_relabel_diagonal_head), (
        'triangulation has 2 structural violations: '
        '[{"corner":2,"kind":"corner-mismatch","labels":[7,2],"triangle":"0-1-2"},'
        '{"corner":1,"kind":"corner-mismatch","labels":[2,7],"triangle":"0-2-3"}]')),
    "second cell's side relabelled": (_square(_relabel_outer_head), (
        'triangulation has 1 structural violations: '
        '[{"corner":1,"kind":"corner-mismatch","labels":[1,7],"triangle":"0-1-2"}]')),
    "unlisted cell": ({**_square(), "triangles": ["0-2-3"]}, (
        'triangulation has 4 structural violations: '
        '[{"edge":"0-1","kind":"unknown-triangle","triangle":"0-1-2"},'
        '{"edge":"0-2","kind":"unknown-triangle","triangle":"0-1-2"},'
        '{"edge":"1-2","kind":"unknown-triangle","triangle":"0-1-2"}]')),
}

FLIP_ERRORS = {
    "boundary edge": (_square(), "0-1", "NotFlippable", 'edge "0-1" is on the boundary'),
    "unknown edge": (_square(), "9-9", "KeyError", 'unknown edge "9-9"'),
    "self-glued edge": (SELF_GLUED, "loop", "SelfFoldedUnsupported",
                        'edge "loop" glues triangle "A" to itself'),
    "quadrilateral wraps onto itself": (TORUS, "c", "SelfFoldedUnsupported",
                                        'quadrilateral around "c" wraps onto itself'),
    "side S->P unattached before R->Q": (
        _square(_unattach("0-3"), _unattach("1-2")), "0-2", "InvalidTriangulation",
        'triangulation has 4 structural violations: '
        '[{"edge":"0-3","kind":"bad-side-index","side":5,"triangle":"0-2-3"},'
        '{"edge":"1-2","kind":"bad-side-index","side":4,"triangle":"0-1-2"},'
        '{"kind":"dangling-side","side":1,"triangle":"0-1-2"}]'),
    "side R->Q unattached before Q->S": (
        _square(_unattach("0-1"), _unattach("0-3")), "0-2", "InvalidTriangulation",
        'triangulation has 4 structural violations: '
        '[{"edge":"0-1","kind":"bad-side-index","side":3,"triangle":"0-1-2"},'
        '{"edge":"0-3","kind":"bad-side-index","side":5,"triangle":"0-2-3"},'
        '{"kind":"dangling-side","side":0,"triangle":"0-1-2"}]'),
    "reused edge id": (_square(_rename), "0-2", "InvalidTriangulation",
                       'flip of "0-2" would reuse edge id "1-3"; '
                       "distinct arcs with equal endpoints are not supported"),
    "two cells with one id": (_square(_alternate_labels), "0-2", "SelfFoldedUnsupported",
                              'flip of "0-2" would produce two cells with id "x-y-y"'),
    "reused triangle id": (RELABELLED_OCTAGON, "2-4", "InvalidTriangulation",
                           'flip of "2-4" would reuse triangle id "5-6-7"; '
                           "the cell that has it is not replaced"),
    "reused edge id from mixed labels": (RELABELLED_OCTAGON_EDGE, "2-4", "InvalidTriangulation",
                                         'flip of "2-4" would reuse edge id "6-7"; '
                                         "distinct arcs with equal endpoints are not supported"),
    **{name: (doc, "0-2", "InvalidTriangulation", detail)
       for name, (doc, detail) in INCOHERENT_CELLS.items()},
    # the edge lookup, then the structure, then the flip's own refusals
    "unknown edge of a broken complex": (INCOHERENT_CELLS["unlisted cell"][0], "9-9", "KeyError",
                                         'unknown edge "9-9"'),
    "boundary edge of a broken complex": (INCOHERENT_CELLS["unlisted cell"][0], "0-3",
                                          "InvalidTriangulation",
                                          INCOHERENT_CELLS["unlisted cell"][1]),
}


@pytest.mark.parametrize("doc,edge,error,detail", FLIP_ERRORS.values(), ids=FLIP_ERRORS)
def test_flip_error_is_reported_with_its_text(doc, edge, error, detail, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["flip", "--triangulation", str(path), "--edge", edge])
    assert (code, json.loads(out.getvalue()), err.getvalue()) == (
        1, {"error": error, "detail": detail}, "")


def test_the_octagon_whose_flip_reuses_a_triangle_id_validates(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(RELABELLED_OCTAGON))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["validate", "--triangulation", str(path)])
    assert (code, json.loads(out.getvalue())) == (0, {"valid": True, "violations": []})


@pytest.mark.parametrize("doc,detail", INCOHERENT_CELLS.values(), ids=INCOHERENT_CELLS)
def test_quad_frame_refuses_incoherent_cells(doc, detail):
    with pytest.raises(InvalidTriangulation) as caught:
        quad_frame(Triangulation.from_json(doc), "0-2")
    assert str(caught.value) == detail


def test_transport_names_the_first_missing_frame_vertex():
    _, frame_old, frame_new, _ = flip_triangulation(SQUARE, "0-2")
    values = dict(zip(SQUARE.keys, sample_hive(SQUARE, 1, 0)))
    del values[frame_old[A9]], values[frame_old[A3]]
    with pytest.raises(InvalidHive) as caught:
        octahedron_transport(values, frame_old, frame_new)
    assert str(caught.value) == 'hive has no value at frame vertex "e:1-2:1"'
    assert frame_old[A3] == "e:1-2:1"
