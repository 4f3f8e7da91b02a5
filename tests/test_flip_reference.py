"""Differential test of the diagonal flip against its two-reading form.

The reference below is ``quad_frame``, ``flip_triangulation`` and
``octahedron_transport`` as they were before the flip read its quadrilateral
once: the frame from ten corner-vertex and two corner-label lookups, the four
outer sides read a second time by name, each new cell found by a second
search over its rotations and the post-flip frame rebuilt field by field.
Every input must give the same flipped ``edges`` and ``triangles`` in order,
the same frames, the same transported hive, or the same exception with the
same text.  The library gives a frame as the keys of its twelve vertices and
the new diagonal's id beside the flip, and it transports thirds by key, so the
reference's frames and hives are compared by their keys.  The reference finds
the edge at a side by scanning the edge records for its attachment
(``_side``), not through the library's frames, so a fault in how the library
reads a side off a frame is not shared by the reference.  The reference orders
the new diagonal's two labels by ``repr`` when they do not compare, as the
cells' corners are ordered.  Two
differences are meant: once the edge is found, the flip and ``quad_frame``
refuse every complex that ``validate_complex`` rejects with the structural
gate's error, where the reference flipped it or failed on its own checks; and
the flip refuses a new cell whose id a cell it keeps already has, naming the
edge and the id, where the reference built the cell list and
``Triangulation`` refused it.

On complexes that ``validate_complex`` accepts, a flip either gives a complex
it accepts, with a transported hive that validates, or is refused with a text
that names the edge.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiveweb.errors import (
    HivewebError,
    InvalidHive,
    InvalidTriangulation,
    NotFlippable,
    SelfFoldedUnsupported,
)
from hiveweb.hive import octahedron_transport, validate_hive
from hiveweb.sampling import sample_hive
from hiveweb.surface import (
    EdgeRec,
    ThetaVertex,
    Triangulation,
    build_polygon,
    flip_triangulation,
    quad_frame,
    validate_complex,
)

# -- the reference ------------------------------------------------------------


@dataclass(frozen=True)
class RefFrame:
    a1: ThetaVertex
    a2: ThetaVertex
    a3: ThetaVertex
    a4: ThetaVertex
    a5: ThetaVertex
    a6: ThetaVertex
    a7: ThetaVertex
    a8: ThetaVertex
    a9: ThetaVertex
    a10: ThetaVertex
    a11: ThetaVertex
    a12: ThetaVertex
    diagonal: str
    tri_left: str
    tri_right: str
    labels: dict = field(compare=False, default_factory=dict)

    def vertices(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a5, self.a6,
                self.a7, self.a8, self.a9, self.a10, self.a11, self.a12)


def _side(tri, t, s):
    """The edge at side ``s`` of cell ``t`` and whether the side walks it
    tail -> head: the edge attached there first (fwd) or second (backward)."""
    at = (t, s % 3)
    for rec in tri.edges:
        if tuple(rec.attach0) == at:
            return rec.id, True
        if rec.attach1 is not None and tuple(rec.attach1) == at:
            return rec.id, False
    raise KeyError(f"no edge at side {s % 3} of {json.dumps(t)}")


def _corner_label(tri, t, k):
    edge_id, fwd = _side(tri, t, k)
    rec = tri.edge(edge_id)
    return rec.tail if fwd else rec.head


def _corner_vertex(tri, t, s, at_start):
    edge_id, fwd = _side(tri, t, s)
    slot = (0 if fwd else 1) if at_start else (1 if fwd else 0)
    return ThetaVertex.edge(edge_id, slot)


def reference_quad_frame(tri, edge_id):
    rec = tri.edge(edge_id)
    if rec.attach1 is None:
        raise NotFlippable(f"edge {json.dumps(edge_id)} is on the boundary")
    t_left, s_left = rec.attach0
    t_right, s_right = rec.attach1
    if t_left == t_right:
        raise SelfFoldedUnsupported(
            f"edge {json.dumps(edge_id)} glues triangle {json.dumps(t_left)} to itself")
    frame = RefFrame(
        a1=_corner_vertex(tri, t_left, s_left + 1, at_start=True),
        a2=ThetaVertex.edge(edge_id, 1),
        a3=_corner_vertex(tri, t_right, s_right + 2, at_start=False),
        a4=_corner_vertex(tri, t_left, s_left + 1, at_start=False),
        a5=ThetaVertex.center(t_left),
        a6=ThetaVertex.edge(edge_id, 0),
        a7=ThetaVertex.center(t_right),
        a8=_corner_vertex(tri, t_right, s_right + 2, at_start=True),
        a9=_corner_vertex(tri, t_left, s_left + 2, at_start=True),
        a10=_corner_vertex(tri, t_left, s_left + 2, at_start=False),
        a11=_corner_vertex(tri, t_right, s_right + 1, at_start=True),
        a12=_corner_vertex(tri, t_right, s_right + 1, at_start=False),
        diagonal=edge_id,
        tri_left=t_left,
        tri_right=t_right,
        labels={
            "Q": rec.tail,
            "P": rec.head,
            "R": _corner_label(tri, t_left, s_left + 2),
            "S": _corner_label(tri, t_right, s_right + 2),
        },
    )
    if len(set(frame.vertices())) != 12:
        raise SelfFoldedUnsupported(
            f"quadrilateral around {json.dumps(edge_id)} wraps onto itself")
    return frame


def _ordered_pair(a, b):
    """The two labels in order; labels that do not compare go by ``repr``,
    as the cells' corners do in :func:`_rotate_to_min`."""
    try:
        return (b, a) if b < a else (a, b)
    except TypeError:
        return (b, a) if repr(b) < repr(a) else (a, b)


def _rotate_to_min(cycle):
    rotations = [cycle[i:] + cycle[:i] for i in range(3)]
    try:
        return min(rotations)
    except TypeError:
        return min(rotations, key=lambda r: tuple(map(repr, r)))


def reference_flip(tri, edge_id):
    frame_old = reference_quad_frame(tri, edge_id)
    rec = tri.edge(edge_id)
    t_left, s_left = rec.attach0
    t_right, s_right = rec.attach1
    lbl = frame_old.labels
    q, p, r, s = lbl["Q"], lbl["P"], lbl["R"], lbl["S"]

    outer = {
        "PL": _side(tri, t_left, s_left + 1),
        "RQ": _side(tri, t_left, s_left + 2),
        "QS": _side(tri, t_right, s_right + 1),
        "SP": _side(tri, t_right, s_right + 2),
    }
    ids = [edge_id] + [eid for eid, _ in outer.values()]
    if len(set(ids)) != 5:
        raise SelfFoldedUnsupported(f"quadrilateral around {edge_id!r} repeats an edge")

    tail, head = _ordered_pair(r, s)
    new_eid = f"{tail}-{head}"
    if new_eid in tri._edge_by_id and new_eid != edge_id:
        raise InvalidTriangulation(
            f"flip of {json.dumps(edge_id)} would reuse edge id {json.dumps(new_eid)}; "
            "distinct arcs with equal endpoints are not supported"
        )

    cycle_p, sides_p = (r, s, p), ["diag", "SP", "PL"]
    cycle_q, sides_q = (r, q, s), ["RQ", "QS", "diag"]

    def build_cell(cycle, side_names):
        rot = _rotate_to_min(cycle)
        shift = next(i for i in range(3) if cycle[i:] + cycle[:i] == rot)
        tid = "-".join(str(v) for v in rot)
        sides = {side_names[(k + shift) % 3]: k for k in range(3)}
        return tid, sides

    pid, sides_of_p = build_cell(cycle_p, sides_p)
    qid, sides_of_q = build_cell(cycle_q, sides_q)
    if pid == qid:
        raise SelfFoldedUnsupported(
            f"flip of {json.dumps(edge_id)} would produce two cells with id {json.dumps(pid)}")

    replacements = {}
    for cell_id, sides in ((pid, sides_of_p), (qid, sides_of_q)):
        for side_name, k in sides.items():
            if side_name == "diag":
                continue
            eid, fwd = outer[side_name]
            old_owner = (t_left, (s_left + (1 if side_name == "PL" else 2)) % 3) \
                if side_name in ("PL", "RQ") \
                else (t_right, (s_right + (1 if side_name == "QS" else 2)) % 3)
            replacements[eid] = (old_owner, (cell_id, k))

    diag_fwd_cell = (pid, sides_of_p["diag"]) if tail == r else (qid, sides_of_q["diag"])
    diag_bwd_cell = (qid, sides_of_q["diag"]) if tail == r else (pid, sides_of_p["diag"])

    new_edges = []
    for old in tri.edges:
        if old.id == edge_id:
            new_edges.append(EdgeRec(new_eid, tail, head, diag_fwd_cell, diag_bwd_cell))
        elif old.id in replacements:
            old_owner, new_owner = replacements[old.id]
            a0 = new_owner if tuple(old.attach0) == tuple(old_owner) else old.attach0
            a1 = old.attach1
            if a1 is not None and tuple(a1) == tuple(old_owner):
                a1 = new_owner
            new_edges.append(EdgeRec(old.id, old.tail, old.head, a0, a1))
        else:
            new_edges.append(old)
    new_tris = [pid if t == t_left else qid if t == t_right else t for t in tri.triangles]
    flipped = Triangulation(new_tris, new_edges, tri.signature)

    slot_near_r = 0 if tail == r else 1
    frame_new = RefFrame(
        a1=frame_old.a1, a2=ThetaVertex.center(pid), a3=frame_old.a3, a4=frame_old.a4,
        a5=ThetaVertex.edge(new_eid, slot_near_r), a6=ThetaVertex.center(qid),
        a7=ThetaVertex.edge(new_eid, 1 - slot_near_r), a8=frame_old.a8, a9=frame_old.a9,
        a10=frame_old.a10, a11=frame_old.a11, a12=frame_old.a12, diagonal=new_eid,
        tri_left=diag_fwd_cell[0], tri_right=diag_bwd_cell[0],
        labels={"Q": q, "P": p, "R": r, "S": s},
    )
    return flipped, frame_old, frame_new


def reference_transport(values, frame_old, frame_new):
    read = []
    for v in frame_old.vertices():
        if v not in values:
            raise InvalidHive(f"hive has no value at frame vertex {json.dumps(v.key())}")
        read.append(values[v])
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = read
    b2 = max(a1 + a7, a5 + a3) - a2
    b6 = max(a5 + a11, a7 + a10) - a6
    b5 = max(a4 + b6, a9 + b2) - a5
    b7 = max(b2 + a12, a8 + b6) - a7
    out = dict(values)
    for vertex in (frame_old.a2, frame_old.a5, frame_old.a6, frame_old.a7):
        del out[vertex]
    out[frame_new.a2] = b2
    out[frame_new.a5] = b5
    out[frame_new.a6] = b6
    out[frame_new.a7] = b7
    return out


# -- the comparison -----------------------------------------------------------


def _outcome(call, *args):
    """``("ok", result)`` or ``("raised", type name, text)``."""
    try:
        return "ok", call(*args)
    except (HivewebError, LookupError, ValueError, TypeError) as exc:
        return "raised", type(exc).__name__, str(exc)


def _keys(frame):
    """The keys of a reference frame's vertices a1..a12, as the library gives a frame."""
    return tuple(v.key() for v in frame.vertices())


def _refusal(tri):
    """The structural gate's refusal of ``tri``: the count and the first three
    violations that validate_complex reports for its lists in canonical order."""
    bad = validate_complex(Triangulation(sorted(tri.triangles),
                                         sorted(tri.edges, key=lambda e: e.id), tri.signature))
    shown = json.dumps(bad[:3], sort_keys=True, separators=(",", ":"))
    return ("raised", "InvalidTriangulation",
            f"triangulation has {len(bad)} structural violations: {shown}")


def _reused_cell_ids(tri, edge_id):
    """The ids of the cells the reference makes in ``edge_id``'s flip that a
    cell the flip does not replace has."""
    labels = reference_quad_frame(tri, edge_id).labels
    r, s, p, q = (labels[k] for k in "RSPQ")
    made = {"-".join(map(str, _rotate_to_min(cycle))) for cycle in ((r, s, p), (r, q, s))}
    rec = tri.edge(edge_id)
    return made & (set(tri.triangles) - {rec.attach0[0], rec.attach1[0]})


REUSED_CELL = re.compile(r"flip of (.+) would reuse triangle id .+; "
                         r"the cell that has it is not replaced")


def _reuses_cell_id(outcome, edge_id):
    """Whether ``outcome`` is the flip's refusal of a new cell id that a kept
    cell has, naming ``edge_id``."""
    refused = outcome[:2] == ("raised", "InvalidTriangulation")
    match = REUSED_CELL.fullmatch(outcome[2]) if refused else None
    return match is not None and match[1] == json.dumps(edge_id)


def _same_flip(tri, edge_id):
    """Compare both flips of ``edge_id`` and both frames; the flip's result
    (or None when both raised, or the flip refused a broken complex or a
    reused cell id)."""
    got, want = _outcome(flip_triangulation, tri, edge_id), _outcome(reference_flip, tri, edge_id)
    frame_got, frame_want = _outcome(quad_frame, tri, edge_id), _outcome(reference_quad_frame,
                                                                          tri, edge_id)
    if edge_id in {e.id for e in tri.edges} and validate_complex(tri):
        # after the edge lookup, the gate refuses the complex, whatever the
        # reference made of the quadrilateral
        assert got == frame_got == _refusal(tri)
        return None
    if got != want and _reuses_cell_id(got, edge_id):
        # the flip refuses before it builds anything; the reference builds
        # the cell list, where the walk reports each reused id
        assert want[0] == "ok"
        reported = validate_complex(want[1][0])
        assert {v["kind"] for v in reported} == {"duplicate-id"}
        assert sorted(v["triangle"] for v in reported) == sorted(_reused_cell_ids(tri, edge_id))
        assert frame_got[1] == _keys(frame_want[1])
        return None
    if want[0] == "raised":
        assert got == want
    if frame_want[0] == "raised":
        assert frame_got == frame_want
    else:
        assert frame_got[1] == _keys(frame_want[1])
    if want[0] == "raised":
        return None
    (flipped, old, new, new_edge), (ref_flipped, ref_old, ref_new) = got[1], want[1]
    assert repr(flipped.edges) == repr(ref_flipped.edges)
    assert flipped.triangles == ref_flipped.triangles
    assert flipped.signature == ref_flipped.signature
    assert flipped.to_json() == ref_flipped.to_json()
    assert (old, new, new_edge) == (_keys(ref_old), _keys(ref_new), ref_new.diagonal)
    return flipped, (old, new), (ref_old, ref_new)


def _same_transport(values, frames, ref_frames):
    """Compare both transports of ``values``, thirds by vertex, in order; the
    reference's result (or None when both raised)."""
    got = _outcome(octahedron_transport, {v.key(): x for v, x in values.items()}, *frames)
    want = _outcome(reference_transport, values, *ref_frames)
    if want[0] == "raised":
        assert got == want
        return None
    assert repr(list(got[1].items())) == repr([(v.key(), x) for v, x in want[1].items()])
    return want[1]


# -- inputs -------------------------------------------------------------------


def _diagonals(draw, m):
    """The diagonals of a triangulated m-gon split recursively at drawn apexes."""
    diagonals, stack = [], [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo >= 2:
            k = draw(st.integers(lo + 1, hi - 1))
            for a, b in ((lo, k), (k, hi)):
                if b - a >= 2:
                    diagonals.append((a, b))
                    stack.append((a, b))
    return diagonals


def _labels(draw, m):
    """Marked-point labels for vertices 0..m-1: distinct ints, distinct
    strings, a mix, or a few labels repeated around the polygon."""
    kind = draw(st.sampled_from(["int", "str", "mixed", "repeated"]))
    order = draw(st.permutations(range(m)))
    if kind == "int":
        return [3 * i - m for i in order]
    if kind == "str":
        return [f"v{i}" for i in order]
    if kind == "mixed":
        return [i if draw(st.booleans()) else f"{i}" for i in order]
    return [i % draw(st.integers(2, 3)) for i in order]


def _break(doc, rng):
    """One structural fault at a random edge: a side index moved, a triangle
    renamed, an edge dropped, an interior edge glued to its own cell, an end
    relabelled or a cell left out of the triangle list; the edge's id."""
    edges = doc["edges"]
    e = rng.choice(edges)
    fault = rng.choice(["side", "triangle", "drop", "self", "label", "unlist"])
    if fault == "side":
        e["attach"][0][1] = (e["attach"][0][1] + rng.choice([1, 2, 3])) % 4
    elif fault == "triangle":
        e["attach"][0][0] = "9-9-9"
    elif fault == "drop":
        edges.remove(e)
    elif fault == "label":
        e[rng.choice(["tail", "head"])] = "fresh"
    elif fault == "unlist":
        doc["triangles"].remove(e["attach"][0][0])
    elif e["attach"][1] != "boundary":
        e["attach"][1][0] = e["attach"][0][0]
    return e["id"]


@st.composite
def flip_walks(draw, broken=False):
    """A triangulation document, broken when ``broken`` and else now and
    then, the edge picks of a walk and the broken edge's id (or None)."""
    m = draw(st.integers(4, 14))
    doc = build_polygon(m, _diagonals(draw, m)).to_json()
    labels = _labels(draw, m)
    for e in doc["edges"]:
        e["tail"], e["head"] = labels[e["tail"]], labels[e["head"]]
    rng = random.Random(draw(st.integers(0, 2**32)))
    at = _break(doc, rng) if broken or draw(st.integers(0, 3)) == 0 else None
    picks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    return doc, picks, rng, at


def _octagon():
    """An 8-gon labelled by ints and digit strings whose flip of 2-4 would
    make cells 5-6-7 (from the labels '7', '5', 6) and 5-4-7, while 5-6-7 is
    already an unrelated cell's id."""
    doc = build_polygon(8, [(1, 7), (1, 4), (1, 5), (2, 4), (5, 7)]).to_json()
    labels = [3, "7", "5", 6, 4, 2, "0", "1"]
    for e in doc["edges"]:
        e["tail"], e["head"] = labels[e["tail"]], labels[e["head"]]
    return doc


def _relabelled_octagon():
    """The octagon with the head of its edge 1-2 relabelled: cell 1-2-4 is
    incoherent, so the flip of 2-4 is refused, while the reference flips it
    into the cell 5-6-7 and fails on its id."""
    doc = _octagon()
    next(e for e in doc["edges"] if e["id"] == "1-2")["head"] = "fresh"
    return doc, [3], random.Random(0), "1-2"  # interior edge 3 is 2-4


@settings(max_examples=120, deadline=None)
@given(flip_walks())
@example(_relabelled_octagon())
def test_flip_walks_match_the_reference(case):
    doc, picks, rng, _ = case
    tri = Triangulation.from_json(doc)
    values = None
    for pick in picks:
        if values is None:
            values = {v: rng.randrange(-60, 61) for v in map(ThetaVertex.parse, tri.keys)}
        if rng.random() < 0.1:
            del values[rng.choice(sorted(values))]
        # mostly interior edges, then any edge, then an unknown one
        ids = tri.interior_edges() if pick < 30 else [e.id for e in tri.edges]
        edge_id = ids[pick % len(ids)] if ids and pick < 38 else "no-such-edge"
        done = _same_flip(tri, edge_id)
        if done is not None:
            tri, frames, ref_frames = done
            values = _same_transport(values, frames, ref_frames)


@settings(max_examples=80, deadline=None)
@given(flip_walks(broken=True))
def test_a_flip_leaves_a_broken_complex_broken(case):
    """When validate_complex rejects a triangulation, no flip makes anything
    of it: the gate refuses each one; the walk flips at the broken edge first."""
    doc, picks, _, at = case
    tri = Triangulation.from_json(doc)
    for pick in picks:
        ids = [e.id for e in tri.edges]
        edge_id = at if at in ids else ids[pick % len(ids)]
        at = None
        try:
            flipped = flip_triangulation(tri, edge_id)[0]
        except (HivewebError, KeyError) as exc:
            if validate_complex(tri):
                assert ("raised", type(exc).__name__, str(exc)) == _refusal(tri)
            continue
        assert not validate_complex(tri)
        tri = flipped


def _torus():
    """A once-punctured torus: every quadrilateral wraps onto itself."""
    return Triangulation(["A", "B"], [
        EdgeRec("a", "v", "v", ("A", 0), ("B", 1)),
        EdgeRec("b", "v", "v", ("A", 1), ("B", 2)),
        EdgeRec("c", "v", "v", ("B", 0), ("A", 2)),
    ])


def _self_glued():
    return Triangulation(["A"], [
        EdgeRec("loop", "v", "v", ("A", 0), ("A", 1)),
        EdgeRec("b2", "v", "v", ("A", 2), None),
    ])


def test_fixed_structures_match_the_reference():
    square = build_polygon(4, [(0, 2)]).to_json()
    for e in square["edges"]:
        e["tail"], e["head"] = "xyxy"[e["tail"]], "xyxy"[e["head"]]
    renamed = build_polygon(4, [(0, 2)]).to_json()
    next(e for e in renamed["edges"] if e["id"] == "0-3")["id"] = "1-3"
    for tri in (_torus(), _self_glued(), Triangulation.from_json(square),
                Triangulation.from_json(renamed), build_polygon(6, [(0, 2), (2, 4), (0, 4)]),
                Triangulation.from_json(_octagon())):
        for edge_id in [e.id for e in tri.edges] + ["no-such-edge"]:
            _same_flip(tri, edge_id)


# -- flips of complexes that validate_complex accepts -------------------------


@st.composite
def valid_complexes(draw):
    """A relabelled polygon document, as ``flip_walks`` makes it but never
    broken, with its cell ids now and then shuffled among the cells, so that a
    flip can make an id that a cell it keeps already has; the edge picks of a
    walk and a sampling seed."""
    m = draw(st.integers(4, 14))
    doc = build_polygon(m, _diagonals(draw, m)).to_json()
    labels = _labels(draw, m) if draw(st.booleans()) else range(m)
    for e in doc["edges"]:
        e["tail"], e["head"] = labels[e["tail"]], labels[e["head"]]
    if draw(st.booleans()):
        names = dict(zip(doc["triangles"], draw(st.permutations(doc["triangles"]))))
        doc["triangles"] = [names[t] for t in doc["triangles"]]
        for e in doc["edges"]:
            for pair in e["attach"]:
                if pair != "boundary":
                    pair[0] = names[pair[0]]
    picks = draw(st.lists(st.integers(0, 10), min_size=1, max_size=6))  # repeats flip back
    return doc, picks, draw(st.integers(0, 2**32))


def _flip_or_refusal(tri, edge_id, thirds):
    """The flip of ``edge_id`` and the hive ``thirds`` moved across it, once
    both validate; None if the flip is refused with a text naming the edge."""
    try:
        flipped, frame_old, frame_new, _ = flip_triangulation(tri, edge_id)
    except (NotFlippable, SelfFoldedUnsupported, InvalidTriangulation) as exc:
        assert json.dumps(edge_id) in str(exc)
        return None
    assert not validate_complex(flipped)
    moved = octahedron_transport(dict(zip(tri.keys, thirds)), frame_old, frame_new)
    thirds = [moved.pop(key) for key in flipped.keys]
    assert not moved and validate_hive(flipped, thirds) == []
    return flipped, thirds


@settings(max_examples=60, deadline=None)
@given(valid_complexes())
@example((_octagon(), [3], 0))  # interior edge 3 is 2-4
def test_a_flip_of_a_valid_complex_validates_or_names_the_edge(case):
    doc, picks, seed = case
    tri = Triangulation.from_json(doc)
    assert not validate_complex(tri)
    thirds = sample_hive(tri, 2, seed)
    for pick in picks:
        interior = tri.interior_edges()
        done = _flip_or_refusal(tri, interior[pick % len(interior)], thirds)
        if done is not None:
            tri, thirds = done


def test_a_flip_of_a_fixed_complex_validates_or_names_the_edge():
    for tri in (_torus(), _self_glued()):
        assert not validate_complex(tri)
        for edge_id in tri.interior_edges():
            _flip_or_refusal(tri, edge_id, [0] * len(tri.keys))


# -- one label order for the ids a flip makes -----------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 9), st.data())
def test_three_flips_of_a_mixed_label_polygon_equal_one(m, data):
    """Flipping an edge, then the diagonal it made, then the one re-made,
    gives the same data as the first flip: the new diagonal's ends are put in
    one order, by ``repr`` when an int and a string meet, as the cells' are.
    The labels' texts are not positions, so no flip reuses an id."""
    pool = [*range(10, 40), *(chr(c) for c in range(ord("a"), ord("z") + 1))]
    labels = data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m, unique=True))
    doc = build_polygon(m, _diagonals(data.draw, m)).to_json()
    for e in doc["edges"]:
        e["tail"], e["head"] = labels[e["tail"]], labels[e["head"]]
    tri = Triangulation.from_json(doc)
    for edge_id in tri.interior_edges():
        once, _, _, new_edge = flip_triangulation(tri, edge_id)
        again = flip_triangulation(once, new_edge)
        thrice = flip_triangulation(again[0], again[3])
        assert thrice[0].to_json() == once.to_json()
        assert thrice[3] == new_edge
