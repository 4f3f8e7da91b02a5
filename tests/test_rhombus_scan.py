"""A triangulation's frames and the rhombus scan against slow references.

``Triangulation.frame`` and ``Triangulation.keys`` give each triangle's
quiver vertices, and ``validate_complex`` reports what the walk that builds
the frames found.  The reference below reads the JSON document itself,
not the loader's tables: a frame built vertex by vertex from side lookups that
scan the document's edges, a second sorted enumeration of the quiver vertices
and a corner check through a per-corner label lookup.  They must give the
same frames, enumeration and report, or the same exception with the same
text, on random polygons with and without broken structure, with their lists
shuffled and with integer ids.

``validate_hive``, ``tropical_potential`` and ``is_in_positive_cone`` run on
int lists over a triangulation's quiver-vertex positions, and on the same
values as thirds by vertex key; the reference reads every triangle
through the reference frame and the nine rhombus quantities on int values in
thirds.  They must agree on sampled hives, on single-vertex perturbations of
them and on the same hives after random flips.

The hive reader must give what a key-by-key reference reader gives, values,
other keys or the exception and its text, on documents with shuffled,
missing, extra and non-vertex keys, values of the wrong type or at the edge
of the cap, and an unparsable cap; a valid document is read without the
index.  The rhombus kernel behind ``validate_hive``, ``tropical_potential``,
``is_in_positive_cone`` and ``hive_to_surface_web`` must answer as a
per-triangle reference through ``Triangulation.frame`` does, on hives a third
off, on broken complexes, on one triangle and on the empty complex.

The walk that builds the frames is the one structural decision: it finds
nothing exactly when the reference report is empty, and every other frame
read raises the gate's error, whose text is the reference report of the lists
in canonical order.  Every hive command decides validity in one order:
completeness by position, then the structure, then the scan.  So on
incomplete or broken hive documents the commands answer by content, not by
list order, and ``potential``, ``cone`` and ``hive2web`` print the error
``validate --hive`` prints; ``sample``, ``web2hive --web``, ``validate --web``
and ``flip`` print the gate's error exactly when ``validate --triangulation``
exits 1.
"""

import contextlib
import io
import json
import os
import random
import tempfile
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiveweb.cli import run
from hiveweb.errors import HivewebError, InvalidHive, InvalidTriangulation, MalformedInput
from hiveweb.hive import (
    failed_rhombi,
    hive_thirds,
    hive_thirds_from_json,
    is_in_positive_cone,
    octahedron_transport,
    rhombi,
    tropical_potential,
    validate_hive,
)
from hiveweb.sampling import sample_hive
from hiveweb.surface import (
    ThetaVertex,
    Triangulation,
    build_polygon,
    flip_triangulation,
    validate_complex,
)
from hiveweb.thirds import _shown as _shown_key
from hiveweb.thirds import int_cap, max_thirds, read_object, read_thirds, shown_violations
from hiveweb.web import (
    hive_to_surface_web,
    surface_web_thirds,
    web_from_rhombi,
)

# -- the reference ------------------------------------------------------------

# a1..a7: (s, True) is the vertex of side s nearer corner s, (s, False) the one
# nearer corner s+1, None the center
REF_LAYOUT = ((2, False), (0, True), (2, True), None, (0, False), (1, False), (1, True))


def _text(raw):
    """An id as the loader names it: a string, or an int's decimal text."""
    return raw if isinstance(raw, str) else str(raw)


class DocEdge(NamedTuple):
    id: str
    tail: object
    head: object
    attachments: list  # (triangle, side, walks tail->head), the first one first


def doc_edges(doc):
    """The edges of a triangulation document, in its order."""
    edges = []
    for e in doc["edges"]:
        first, second = (e["attach"] + ["boundary"])[:2]
        attachments = [(_text(first[0]), first[1], True)]
        if second != "boundary":
            attachments.append((_text(second[0]), second[1], False))
        edges.append(DocEdge(_text(e["id"]), e["tail"], e["head"], attachments))
    return edges


def _side(edges, t, s):
    """(edge id, walks tail->head) of the one edge at side ``s`` of ``t``."""
    hits = [(e.id, fwd) for e in edges for tt, ss, fwd in e.attachments if (tt, ss) == (t, s)]
    if len(hits) != 1:
        raise InvalidTriangulation(f"side {s} of triangle {t!r} attached {len(hits)} times")
    return hits[0]


def _corner_vertex(edges, t, s, at_start):
    edge_id, fwd = _side(edges, t, s)
    slot = (0 if fwd else 1) if at_start else (1 if fwd else 0)
    return f"e:{edge_id}:{slot}"


def _corner_label(edges, t, k, at_start=True):
    edge_id, fwd = _side(edges, t, k)
    rec = next(e for e in edges if e.id == edge_id)
    return rec.tail if fwd == at_start else rec.head


def reference_frame(edges, t):
    return tuple(f"c:{t}" if site is None else _corner_vertex(edges, t, *site)
                 for site in REF_LAYOUT)


def reference_rhombi(a1, a2, a3, a4, a5, a6, a7):
    """The nine rhombus quantities of values in thirds, in the canonical listing order."""
    return (a1 + a2 - a4, a3 + a4 - a1 - a6, a4 + a5 - a2 - a7,
            a5 + a7 - a4, a2 + a4 - a1 - a5, a4 + a6 - a3 - a7,
            a3 + a6 - a4, a4 + a7 - a5 - a6, a1 + a4 - a2 - a3)


def triangle_frame(tri, t):
    """The keys of the library's quiver vertices of ``t`` in hive-label order a1..a7."""
    return tuple(tri.keys[p] for p in tri.frame(t))


def reference_theta_index(doc):
    out = [f"c:{t}" for t in sorted(set(map(_text, doc["triangles"])))]
    for eid in sorted({e.id for e in doc_edges(doc)}):
        out.append(f"e:{eid}:0")
        out.append(f"e:{eid}:1")
    return out


def reference_validate_complex(doc):
    violations = []

    def add(kind, **details):
        violations.append({"kind": kind, **details})

    edges, triangles = doc_edges(doc), [_text(t) for t in doc["triangles"]]
    for kind, ids in (("triangle", triangles), ("edge", [e.id for e in edges])):
        for k, i in enumerate(ids):
            if ids[:k].count(i) == 1:  # its second listing
                add("duplicate-id", **{kind: i})
    if violations:  # the positions are ambiguous: nothing else is reported
        return violations
    for rec in edges:
        for t, s, _ in rec.attachments:
            if t not in triangles:
                add("unknown-triangle", edge=rec.id, triangle=t)
            elif s not in (0, 1, 2):
                add("bad-side-index", edge=rec.id, triangle=t, side=s)
    for t in triangles:
        for s in range(3):
            hits = [e.id for e in edges for tt, ss, _ in e.attachments if (tt, ss) == (t, s)]
            if not hits:
                add("dangling-side", triangle=t, side=s)
            elif len(hits) > 1:
                add("double-attached-side", triangle=t, side=s, edges=hits)
    if not violations:
        for t in triangles:
            for k in range(3):
                via_side_k = _corner_label(edges, t, k)
                via_prev = _corner_label(edges, t, (k - 1) % 3, at_start=False)
                if via_side_k != via_prev:
                    add("corner-mismatch", triangle=t, corner=k, labels=[via_side_k, via_prev])
    if "signature" in doc:
        g, c, m = (doc["signature"][k] for k in "gcm")
        want_f = 2 * c + m + 4 * g - 4
        want_e = 3 * c + 2 * m + 6 * g - 6
        if len(triangles) != want_f:
            add("count-mismatch", field="triangles", have=len(triangles), want=want_f)
        if len(edges) != want_e:
            add("count-mismatch", field="edges", have=len(edges), want=want_e)
    return violations


def _shown(violations):
    return json.dumps(violations[:3], sort_keys=True, separators=(",", ":"))


def canonical_doc(doc):
    """``doc`` with its triangles sorted and its edges in id order."""
    return {**doc, "triangles": sorted(doc["triangles"], key=_text),
            "edges": sorted(doc["edges"], key=lambda e: _text(e["id"]))}


def reference_refusal(doc):
    """The gate's refusal of a broken ``doc``: the count and the first three
    of the violations that the reference reports for the lists in canonical
    order."""
    bad = reference_validate_complex(canonical_doc(doc))
    return ("raised", "InvalidTriangulation",
            f"triangulation has {len(bad)} structural violations: {_shown(bad)}")


def random_diagonals(m, rng):
    diags, stack = [], [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo >= 2:
            k = rng.randint(lo + 1, hi - 1)
            for a, b in ((lo, k), (k, hi)):
                if b - a >= 2:
                    diags.append((a, b))
                    stack.append((a, b))
    return diags


def reference(tri, values):
    """(violations, potential, in cone) one value at a time, of ``values``
    in thirds by position."""
    violations, worst, edges = [], None, doc_edges(tri.to_json())
    for t in tri.triangles:
        frame = reference_frame(edges, t)
        thirds = (values[tri.index[key]] for key in frame)
        for index, d in enumerate(reference_rhombi(*thirds), start=1):
            if d < 0 or d % 3 != 0:
                violations.append({"triangle": t, "rhombus": index, "thirds": d})
            worst = -d if worst is None else max(worst, -d)
    return violations, worst, not violations


def assert_agrees(tri, values):
    violations, potential, cone = reference(tri, values)
    for form in (values, dict(zip(tri.keys, values))):
        assert validate_hive(tri, form) == violations
        assert tropical_potential(tri, form) == potential
        assert is_in_positive_cone(tri, form) is cone


def perturbed(tri, values, data):
    p = tri.index[data.draw(st.sampled_from(tri.keys))]
    delta = data.draw(st.integers(-4, 4).filter(bool))
    return [x + delta if i == p else x for i, x in enumerate(values)]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_scan_agrees_with_reference(data):
    m = data.draw(st.integers(3, 30))
    tri = build_polygon(m, random_diagonals(m, random.Random(data.draw(st.integers(0, 2**32)))))
    values = sample_hive(tri, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 10**6)))
    assert_agrees(tri, values)
    assert_agrees(tri, perturbed(tri, values, data))
    for _ in range(data.draw(st.integers(1, 4))):
        interior = sorted(tri.interior_edges())
        if not interior:
            break
        flipped, frame_old, frame_new, _ = flip_triangulation(
            tri, data.draw(st.sampled_from(interior)))
        moved = octahedron_transport(dict(zip(tri.keys, values)), frame_old, frame_new)
        tri, values = flipped, [moved[key] for key in flipped.keys]
        assert_agrees(tri, values)
    assert_agrees(tri, perturbed(tri, values, data))


# -- frames, enumeration and report -------------------------------------------


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except (HivewebError, LookupError) as exc:
        return "raised", type(exc).__name__, str(exc)


def _break(doc, rng):
    """One structural fault at a random edge: a side index moved, an end
    relabelled, the edge dropped or listed again, a triangle renamed, left out
    of the triangle list or listed again, or an interior edge glued to its
    own cell."""
    e = rng.choice(doc["edges"])
    fault = rng.choice(["side", "label", "drop", "triangle", "unlist", "self", "edge again",
                        "triangle again"])
    if fault == "side":
        e["attach"][0][1] = (e["attach"][0][1] + rng.choice([1, 2, 3])) % 4
    elif fault == "label":
        e[rng.choice(["tail", "head"])] = "fresh"
    elif fault == "drop":
        doc["edges"].remove(e)
    elif fault == "triangle":
        e["attach"][0][0] = "9-9-9"
    elif fault == "unlist" and e["attach"][0][0] in doc["triangles"]:
        doc["triangles"].remove(e["attach"][0][0])
    elif fault == "self" and e["attach"][1] != "boundary":
        e["attach"][1][0] = e["attach"][0][0]
    elif fault == "edge again":
        doc["edges"].append(json.loads(json.dumps(e)))
    elif fault == "triangle again" and doc["triangles"]:
        doc["triangles"].append(rng.choice(doc["triangles"]))


def _number_ids(doc, rng):
    """Replace every triangle and edge id by a distinct int, some negative."""
    numbers = {}

    def number(name):
        return numbers.setdefault(name, rng.choice([-1, 1]) * 7 * (len(numbers) + 1))

    doc["triangles"] = [number(t) for t in doc["triangles"]]
    for e in doc["edges"]:
        e["id"] = number(e["id"])
        for pair in e["attach"]:
            if pair != "boundary":
                pair[0] = number(pair[0])


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_frames_enumeration_and_report_match_the_reference(data):
    m = data.draw(st.integers(3, 12))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    doc = build_polygon(m, random_diagonals(m, rng)).to_json()
    for _ in range(data.draw(st.integers(0, 2))):
        _break(doc, rng)
    if data.draw(st.booleans()):
        rng.shuffle(doc["edges"])
        rng.shuffle(doc["triangles"])
    if data.draw(st.booleans()):
        _number_ids(doc, rng)
    tri, edges = Triangulation.from_json(doc), doc_edges(doc)
    assert list(tri.keys) == reference_theta_index(doc)
    broken = reference_validate_complex(doc)
    assert validate_complex(tri) == broken
    assert (tri._walk[0] is None) == bool(broken)
    named = {t for e in tri.edges for t, _ in filter(None, (e.attach0, e.attach1))}
    for t in [*tri.triangles, *sorted(named - set(tri.triangles)), "no-such-triangle"]:
        got = _outcome(triangle_frame, tri, t)
        if broken:
            assert got == reference_refusal(doc)
        elif t in tri.triangles:
            assert got == _outcome(reference_frame, edges, t)
        else:
            assert got == ("raised", "KeyError", repr(f"unknown triangle {json.dumps(t)}"))


def _square_cell(change):
    """The square's document with ``change`` made to each attachment to its cell 0-1-2."""
    doc = build_polygon(4, [(0, 2)]).to_json()
    for e in doc["edges"]:
        for pair in e["attach"]:
            if pair != "boundary" and pair[0] == "0-1-2":
                change(pair)
    return doc


def _rename(pair):
    pair[0] = "9-9-9"


def _past_two(pair):
    pair[1] += 3


# complexes that one test of the walk alone refuses: the rest leave every side
# of a cell bare, so that its corners agree, and keep three attachments a cell
WALK_ALONE = {
    "a cell renamed in its edges": _square_cell(_rename),
    "a cell's sides moved past 2": _square_cell(_past_two),
    "a listed cell that no edge holds": {"triangles": ["0-1-2", "0-2-3", "9-9-9"],
                                         "edges": build_polygon(4, [(0, 2)]).to_json()["edges"]},
    "three sides held twice": {"triangles": ["A", "B"], "edges": [
        {"id": "a", "tail": "v", "head": "v", "attach": [["A", 0], ["A", 1]]},
        {"id": "b", "tail": "v", "head": "v", "attach": [["A", 1], ["A", 2]]},
        {"id": "c", "tail": "v", "head": "v", "attach": [["A", 2], ["A", 0]]}]},
}


@pytest.mark.parametrize("doc", WALK_ALONE.values(), ids=WALK_ALONE)
def test_each_refusal_of_the_walk_stands_alone(doc):
    tri = Triangulation.from_json(doc)
    assert tri._walk[0] is None
    assert validate_complex(tri) == reference_validate_complex(doc) != []
    assert _outcome(tri.check) == reference_refusal(doc)


def test_a_side_attached_twice_leaves_its_cell_without_a_frame():
    """And every other cell: the gate refuses the whole complex."""
    doc = build_polygon(5, [(0, 2), (0, 3)]).to_json()
    boundary = next(e for e in doc["edges"] if e["attach"][1] == "boundary")
    t, s = boundary["attach"][0]
    doc["edges"].append({"id": "extra", "tail": 0, "head": 1, "attach": [[t, s], "boundary"]})
    tri = Triangulation.from_json(doc)
    assert tri._walk[0] is None
    refusal = reference_refusal(doc)
    assert '"kind":"double-attached-side"' in refusal[2]
    for cell in tri.triangles:
        assert _outcome(triangle_frame, tri, cell) == refusal


# the members built on first read
POSITIONS = {"slot0", "keys", "index", "_walk"}
SEPTAGON = ((0, 2), (0, 4), (2, 4), (4, 6))


def built_by(call, *args):
    """The members a fresh 7-gon holds after ``call(tri, *args)``, the same
    whether it was built or loaded from its document."""
    built = build_polygon(7, SEPTAGON)
    fresh = [built, Triangulation.from_json(built.to_json())]
    for tri in fresh:
        call(tri, *args)
    assert vars(fresh[0]).keys() & POSITIONS == vars(fresh[1]).keys() & POSITIONS
    return POSITIONS & vars(fresh[0]).keys()


def test_positions_are_built_only_when_read():
    tri = build_polygon(7, SEPTAGON)
    values = sample_hive(tri, 1, 0)
    coords = hive_to_surface_web(tri, values)
    # the walk decides the structure, so every reader builds the frames
    assert built_by(validate_complex) == {"slot0", "_walk"}
    assert built_by(flip_triangulation, "0-2") == {"slot0", "_walk"}
    assert built_by(sample_hive, 1, 0) == {"slot0", "keys", "_walk"}
    assert built_by(surface_web_thirds, coords) == {"slot0", "keys", "_walk"}
    assert built_by(validate_hive, hive_thirds(tri, values)) == {"slot0", "_walk"}
    # a valid hive document is read in key order, without the index
    doc = {"values": {key: {"thirds": x} for key, x in zip(tri.keys, values)}}
    assert built_by(lambda t: hive_thirds_from_json(doc, t)) == {"slot0", "keys"}


# -- one order of checks for every hive command ---------------------------------

HIVE_COMMANDS = ("validate", "potential", "cone", "hive2web")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_hive_commands_answer_by_content_on_incomplete_or_broken_hives(data):
    m = data.draw(st.integers(3, 14))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    tri = build_polygon(m, random_diagonals(m, rng))
    thirds = sample_hive(tri, 1, 0)
    values = {key: {"thirds": x} for key, x in zip(tri.keys, thirds)}
    doc = {"values": values, "triangulation": tri.to_json()}
    coords = {t: dict(zip("xyztuvw", c)) for t, c in hive_to_surface_web(tri, thirds).items()}
    web = {"coords": coords, "triangulation": doc["triangulation"]}  # broken with the hive's
    for key in rng.sample(sorted(values), data.draw(st.integers(0, 2))):  # failed rhombi
        values[key] = {"thirds": values[key]["thirds"] + rng.choice([-1, 1])}
    missing = data.draw(st.integers(0, 2))
    for key in rng.sample(sorted(values), missing):
        del values[key]
    for _ in range(data.draw(st.integers(0 if missing else 1, 2))):
        _break(doc["triangulation"], rng)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        path, t_path, w_path = (Path(tmp) / name for name in ("h.json", "t.json", "w.json"))
        t_path.write_text(json.dumps(canonical_doc(doc["triangulation"])))
        _, report, _ = _cli(["validate", "--triangulation", str(t_path)])
        report = json.loads(report)["violations"]
        edge = min(e["id"] for e in doc["triangulation"]["edges"])
        structure = {"sample": ["sample", "--triangulation", str(t_path), "--bound", "1",
                                "--seed", "0"],
                     "web2hive --web": ["web2hive", "--web", str(w_path)],
                     "validate --web": ["validate", "--web", str(w_path)],
                     "flip": ["flip", "--triangulation", str(t_path), "--edge", edge]}
        for _ in range(2):
            path.write_text(json.dumps(doc))
            t_path.write_text(json.dumps(doc["triangulation"]))
            w_path.write_text(json.dumps(web))
            outputs.append({cmd: _cli([cmd, "--hive", str(path)]) for cmd in HIVE_COMMANDS})
            outputs[-1].update((cmd, _cli(argv)) for cmd, argv in structure.items())
            rng.shuffle(doc["triangulation"]["triangles"])
            rng.shuffle(doc["triangulation"]["edges"])
    refused = (1, json.dumps({"detail": f"triangulation has {len(report)} structural violations: "
                                        f"{_shown(report)}", "error": "InvalidTriangulation"},
                             sort_keys=True, separators=(",", ":")) + "\n", "")
    for cmd in structure:  # each answers by content
        assert outputs[0][cmd] == outputs[1][cmd], cmd
        if report:
            assert outputs[0][cmd] == refused, cmd
        else:
            assert '"error":"InvalidTriangulation"' not in outputs[0][cmd][1], cmd
    # a report lists violations in triangle order; an error does not depend on it
    if any(not out["validate"][1].startswith('{"valid":') for out in outputs):
        assert outputs[0] == outputs[1]
        for cmd in HIVE_COMMANDS:
            assert outputs[0][cmd] == outputs[0]["validate"], cmd
    if report and not missing:  # the structure, once the hive is complete
        assert outputs[0]["validate"] == refused


def test_hive_commands_refuse_a_corner_with_two_labels(tmp_path):
    """The square with the head of edge 0-1 relabelled 7: every frame reads,
    but corner 1 of 0-1-2 has two labels, so no hive on it is valid."""
    tri = build_polygon(4, [(0, 2)])
    doc = {"values": {key: {"thirds": x} for key, x in zip(tri.keys, sample_hive(tri, 1, 0))},
           "triangulation": tri.to_json()}
    next(e for e in doc["triangulation"]["edges"] if e["id"] == "0-1")["head"] = 7
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    detail = ('triangulation has 1 structural violations: '
              '[{"corner":1,"kind":"corner-mismatch","labels":[1,7],"triangle":"0-1-2"}]')
    refused = json.dumps({"detail": detail, "error": "InvalidTriangulation"},
                         sort_keys=True, separators=(",", ":")) + "\n"
    for cmd in HIVE_COMMANDS:
        assert _cli([cmd, "--hive", str(path)]) == (1, refused, ""), cmd


# -- the hive reader against its per-key reference -------------------------------


def reference_reader(doc, tri):
    """The hive reader key by key, in document order: a value at a key of
    ``tri.keys`` passes the inline test or is read by ``read_thirds``, and any
    other key must be a vertex key, whose value is read the same way."""
    index, cap = tri.index, int_cap()
    raw = read_object(read_object(doc, "hive document", "values")["values"], "values")
    values = [None] * len(index)
    others = {}
    for key, obj in raw.items():
        i = index.get(key)
        if i is None:
            try:
                ThetaVertex.parse(key)
            except ValueError:
                raise MalformedInput(f"values: {_shown_key(key)} is not a vertex key") from None
            others[key] = read_thirds(obj, key)
        else:
            x = obj.get("thirds") if type(obj) is dict and len(obj) == 1 else None
            values[i] = x if type(x) is int and -cap <= x <= cap else read_thirds(obj, key)
    return values, others


@contextlib.contextmanager
def cap_set(text):
    """``HIVEWEB_MAX_THIRDS`` set to ``text`` (unset for None), read afresh."""
    try:
        with mock.patch.dict(os.environ):
            os.environ.pop("HIVEWEB_MAX_THIRDS", None)
            if text is not None:
                os.environ["HIVEWEB_MAX_THIRDS"] = text
            max_thirds.cache_clear()
            yield
    finally:
        max_thirds.cache_clear()


def _any_outcome(call, *args):
    try:
        return "ok", call(*args)
    except Exception as exc:  # noqa: BLE001 - the two readers must fail alike
        return "raised", type(exc).__name__, str(exc)


def _bad_value(cap):
    """The values that a reader must refuse or take at the edge of the cap."""
    return [{"thirds": True}, {"thirds": 1.0}, {"thirds": "3"}, {"thirds": cap + 1},
            {"thirds": cap}, {"thirds": -cap}, {"thirds": -cap - 1}, {"thirds": 3, "x": 0},
            {}, 3, None, [3], "3"]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_reader_agrees_with_its_per_key_reference(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    m = data.draw(st.sampled_from([0, 3, 4, 5, 7]))
    built = build_polygon(m, random_diagonals(m, rng)) if m else Triangulation([], [])
    keys = built.keys
    with cap_set(data.draw(st.sampled_from([None, "50", "0", "x5", "-1", ""]))):
        cap = int_cap()
        values = {key: {"thirds": rng.randint(-max(cap, 0), max(cap, 0))} for key in keys}
        for _ in range(data.draw(st.integers(0, 3))):
            fault = data.draw(st.sampled_from(
                ["drop", "extra vertex", "not a vertex", "value", "value", "empty"]))
            if fault == "drop" and values:
                del values[rng.choice(sorted(values))]
            elif fault == "extra vertex":
                values[rng.choice(["c:9-9-9", "e:9-9:1", "e:0-1:1"])] = {"thirds": 0}
            elif fault == "not a vertex":
                values[rng.choice(["x", "e:0-1:2", "e:0-1:00", "c"])] = {"thirds": 0}
            elif fault == "value" and values:
                values[rng.choice(sorted(values))] = rng.choice(_bad_value(cap))
            elif fault == "empty":
                values = {}
        items = list(values.items())
        if data.draw(st.booleans()):
            rng.shuffle(items)
        doc = {"values": dict(items)}
        tri, fresh = (Triangulation(built.triangles, built.edges) for _ in range(2))
        got = _any_outcome(hive_thirds_from_json, doc, tri)
        assert got == _any_outcome(reference_reader, doc, fresh)
        if got[0] == "ok" and keys and None not in got[1][0] and not got[1][1]:
            assert "index" not in vars(tri)  # a valid document is read in key order


# -- the rhombus kernel against a per-triangle reference ----------------------------


def per_triangle(what, tri, values):
    """What each hive function returns or raises, read triangle by triangle:
    ``rhombi`` and ``failed_rhombi`` on the values at ``tri.frame(t)``, once
    the hive is complete and the gate passes."""
    thirds = hive_thirds(tri, values)
    tri.check()
    quantities = {t: rhombi(*[thirds[p] for p in tri.frame(t)]) for t in tri.triangles}
    bad = [{"triangle": t, "rhombus": i, "thirds": d}
           for t, q in quantities.items() for i, d in failed_rhombi(q)]
    if what == "potential":
        if not quantities:
            raise InvalidHive("triangulation has no triangles")
        return max(-min(q) for q in quantities.values())
    if what == "hive2web" and bad:
        raise InvalidHive(f"hive has {len(bad)} rhombus violations: {shown_violations(bad)}")
    return {"validate": bad, "cone": not bad,
            "hive2web": {t: web_from_rhombi(q) for t, q in quantities.items()}}[what]


KERNEL = {"validate": validate_hive, "potential": tropical_potential,
          "cone": is_in_positive_cone, "hive2web": hive_to_surface_web}


def assert_kernel_agrees(tri, values):
    for form in (values, dict(zip(tri.keys, values))):
        for what, call in KERNEL.items():
            assert _any_outcome(call, tri, form) == _any_outcome(per_triangle, what, tri, form), what


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_kernel_agrees_with_a_per_triangle_reference(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    m = data.draw(st.sampled_from([0, 3, 3, 4, 5, 6, 9]))
    doc = (build_polygon(m, random_diagonals(m, rng)).to_json() if m
           else {"triangles": [], "edges": []})
    if not m and data.draw(st.booleans()):
        doc["signature"] = {"g": 0, "c": 1, "m": 3}  # counts that the empty complex fails
    if m and data.draw(st.booleans()):
        _break(doc, rng)
    if data.draw(st.booleans()):
        rng.shuffle(doc["triangles"])
    tri = Triangulation.from_json(doc)
    if tri._walk[0] is None:  # the gate refuses: any complete values
        values = [rng.randint(-9, 9) for _ in tri.keys]
    else:
        values = sample_hive(tri, data.draw(st.integers(0, 3)), data.draw(st.integers(0, 99)))
        for _ in range(data.draw(st.integers(0, 2)) if values else 0):
            p = rng.randrange(len(values))  # a third off, two thirds off or a whole off
            values[p] += rng.choice([-3, -2, -1, 1, 2, 3])
    if values and data.draw(st.integers(0, 9)) == 0:
        values[rng.randrange(len(values))] = None
    assert_kernel_agrees(tri, values)


def test_kernel_on_one_triangle_and_on_none():
    """A single triangle gives one row of quantities, the empty complex none,
    and a hive a third off with no negative rhombus is refused."""
    one = build_polygon(3, [])
    hive = surface_web_thirds(one, {"0-1-2": (0, 1, 1, 1, 1, 1, 1)})  # every rhombus >= 3
    assert_kernel_agrees(one, hive)
    assert validate_hive(one, hive) == [] and hive_to_surface_web(one, hive) == {
        "0-1-2": (0, 1, 1, 1, 1, 1, 1)}
    hive[one.frame("0-1-2")[3]] += 1  # a4 a third off
    assert_kernel_agrees(one, hive)
    assert not is_in_positive_cone(one, hive)
    assert {v["thirds"] % 3 for v in validate_hive(one, hive)} == {1, 2}
    assert min(v["thirds"] for v in validate_hive(one, hive)) > 0
    for empty in (Triangulation([], []), Triangulation([], [], (0, 1, 3))):
        assert_kernel_agrees(empty, [])
