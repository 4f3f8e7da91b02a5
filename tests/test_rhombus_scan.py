"""A triangulation's frames and the rhombus scan against slow references.

``triangle_frame`` and ``theta_index`` read ``Triangulation.frame`` and
``Triangulation.vertices``, and ``validate_complex`` reads corners through
``Triangulation.ends``.  The
reference below is the code they replaced: a frame built vertex by vertex
from side lookups, a second sorted enumeration of the quiver vertices and a
corner check through a per-corner label lookup.  They must give the same
frames, enumeration and report, or the same exception with the same text, on
random polygons with and without broken structure.

``validate_hive``, ``tropical_potential`` and ``is_in_positive_cone`` run on
int lists over a triangulation's quiver-vertex positions; the reference reads every triangle through
the reference frame and ``rhombus_differences`` on ``Third`` values.  They
must agree on sampled hives, on single-vertex perturbations of them and on
the same hives after random flips.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hiveweb.errors import HivewebError
from hiveweb.hive import (
    TriangleHive,
    hive_thirds,
    is_in_positive_cone,
    octahedron_transport,
    rhombus_differences,
    triangle_frame,
    tropical_potential,
    validate_hive,
)
from hiveweb.sampling import sample_hive, sample_thirds
from hiveweb.surface import (
    ThetaVertex,
    Triangulation,
    ValidationReport,
    build_polygon,
    flip_triangulation,
    validate_complex,
)
from hiveweb.thirds import Third
from hiveweb.web import hive_to_surface_web, surface_web_thirds

# -- the reference ------------------------------------------------------------

# a1..a7: (s, True) is the vertex of side s nearer corner s, (s, False) the one
# nearer corner s+1, None the center
REF_LAYOUT = ((2, False), (0, True), (2, True), None, (0, False), (1, False), (1, True))


def _corner_vertex(tri, t, s, at_start):
    edge_id, fwd = tri.side(t, s)
    slot = (0 if fwd else 1) if at_start else (1 if fwd else 0)
    return ThetaVertex.edge(edge_id, slot)


def _corner_label(tri, t, k):
    edge_id, fwd = tri.side(t, k)
    rec = tri.edge(edge_id)
    return rec.tail if fwd else rec.head


def reference_frame(tri, t):
    return tuple(ThetaVertex.center(t) if site is None else _corner_vertex(tri, t, *site)
                 for site in REF_LAYOUT)


def reference_theta_index(tri):
    out = [ThetaVertex.center(t) for t in sorted(tri.triangles)]
    for eid in sorted(e.id for e in tri.edges):
        out.append(ThetaVertex.edge(eid, 0))
        out.append(ThetaVertex.edge(eid, 1))
    return out


def reference_validate_complex(tri):
    report = ValidationReport()
    tri_set = set(tri.triangles)
    for rec in tri.edges:
        attachments = [rec.attach0] + ([rec.attach1] if rec.attach1 is not None else [])
        for t, s in attachments:
            if t not in tri_set:
                report.add("unknown-triangle", edge=rec.id, triangle=t)
            elif s not in (0, 1, 2):
                report.add("bad-side-index", edge=rec.id, triangle=t, side=s)
    for t in tri.triangles:
        for s in range(3):
            hits = [edge_id for edge_id, _ in tri._slots.get((t, s), ())]
            if not hits:
                report.add("dangling-side", triangle=t, side=s)
            elif len(hits) > 1:
                report.add("double-attached-side", triangle=t, side=s, edges=hits)
    if report.ok:
        for t in tri.triangles:
            for k in range(3):
                via_side_k = _corner_label(tri, t, k)
                eid, fwd = tri.side(t, (k - 1) % 3)
                rec = tri.edge(eid)
                via_prev = rec.head if fwd else rec.tail
                if via_side_k != via_prev:
                    report.add("corner-mismatch", triangle=t, corner=k,
                               labels=[via_side_k, via_prev])
    if tri.signature is not None:
        g, c, m = tri.signature
        want_f = 2 * c + m + 4 * g - 4
        want_e = 3 * c + 2 * m + 6 * g - 6
        if len(tri.triangles) != want_f:
            report.add("count-mismatch", field="triangles", have=len(tri.triangles), want=want_f)
        if len(tri.edges) != want_e:
            report.add("count-mismatch", field="edges", have=len(tri.edges), want=want_e)
    return report


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
    """(violations, potential, in cone) one Third at a time."""
    violations, worst = [], None
    for t in tri.triangles:
        frame = reference_frame(tri, t)
        h = TriangleHive(*(values[v] for v in frame))
        for index, d in enumerate(rhombus_differences(h), start=1):
            if d.thirds < 0 or not d.is_integer():
                violations.append({"triangle": t, "rhombus": index, "thirds": d.thirds})
            worst = -d.thirds if worst is None else max(worst, -d.thirds)
    return violations, Third(worst), not violations


def assert_agrees(tri, values):
    violations, potential, cone = reference(tri, values)
    for form in (values, hive_thirds(tri, values)):
        assert validate_hive(tri, form) == violations
        assert tropical_potential(tri, form) == potential
        assert is_in_positive_cone(tri, form) is cone


def perturbed(tri, values, data):
    vertex = data.draw(st.sampled_from(tri.theta_index()))
    delta = data.draw(st.integers(-4, 4).filter(bool))
    return {**values, vertex: Third(values[vertex].thirds + delta)}


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
        tri, frame_old, frame_new = flip_triangulation(tri, data.draw(st.sampled_from(interior)))
        values = octahedron_transport(values, frame_old, frame_new)
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
    relabelled, the edge dropped, a triangle renamed or left out of the
    triangle list, or an interior edge glued to its own cell."""
    e = rng.choice(doc["edges"])
    fault = rng.choice(["side", "label", "drop", "triangle", "unlist", "self"])
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


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_frames_enumeration_and_report_match_the_reference(data):
    m = data.draw(st.integers(3, 12))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    doc = build_polygon(m, random_diagonals(m, rng)).to_json()
    for _ in range(data.draw(st.integers(0, 2))):
        _break(doc, rng)
    tri = Triangulation.from_json(doc)
    assert tri.theta_index() == reference_theta_index(tri)
    assert validate_complex(tri).to_json() == reference_validate_complex(tri).to_json()
    named = {t for e in tri.edges for t, _ in filter(None, (e.attach0, e.attach1))}
    for t in [*tri.triangles, *sorted(named - set(tri.triangles)), "no-such-triangle"]:
        got, want = _outcome(triangle_frame, tri, t), _outcome(reference_frame, tri, t)
        if t not in tri.triangles and want[0] == "ok":
            # all three sides attached, but no center position to read
            assert got == ("raised", "KeyError", repr(f"unknown triangle {t!r}"))
            assert want[1][3] not in tri.theta_index()
        else:
            assert got == want


POSITIONS = {"slot0", "keys", "index", "vertices"}
SEPTAGON = ((0, 2), (0, 4), (2, 4), (4, 6))


def built_by(call, *args):
    """The position members a fresh 7-gon holds after ``call(tri, *args)``."""
    tri = build_polygon(7, SEPTAGON)
    call(tri, *args)
    return POSITIONS & vars(tri).keys()


def test_positions_are_built_only_when_read():
    tri = build_polygon(7, SEPTAGON)
    values = sample_hive(tri, 1, 0)
    coords = {t: c.values() for t, c in hive_to_surface_web(tri, values).items()}
    assert built_by(validate_complex) == set()
    assert built_by(flip_triangulation, "0-2") == set()
    assert built_by(sample_thirds, 1, 0) == {"slot0", "keys"}
    assert built_by(surface_web_thirds, coords) == {"slot0", "keys"}
    assert built_by(validate_hive, hive_thirds(tri, values)) == {"slot0"}
