"""The document writers write what ``json.dumps`` writes, byte for byte.

``Triangulation.to_text``, ``hive.hive_doc`` and ``web.web_doc`` format their
fixed shapes directly as canonical JSON text.  The dict writers they replace
are kept here as the reference: for every input, each text writer's output
must equal ``json.dumps(reference, sort_keys=True, separators=(",", ":"))``,
and each dict form (``to_json``, ``hive_to_json``, ``surface_web_to_json``)
must equal the reference dict.  The inputs are adversarial: ids and labels
that need escaping (non-ASCII, astral-plane, quotes, backslashes, control
characters, a lone surrogate, the id ``"boundary"``), ints at the cap, other
JSON scalars, repeated keys and missing values, and ids such as ``0-1`` and
``0-10`` whose sorted key order differs from position order.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hiveweb.hive import hive_doc, hive_to_json
from hiveweb.sampling import sample_hive
from hiveweb.surface import EdgeRec, Triangulation, build_polygon
from hiveweb.thirds import DEFAULT_MAX_THIRDS
from hiveweb.web import surface_web_to_json, web_doc

CAP = DEFAULT_MAX_THIRDS


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def reference_triangulation(tri):
    edges = [{"id": rec.id, "tail": rec.tail, "head": rec.head,
              "attach": [list(rec.attach0), list(rec.attach1) if rec.attach1 else "boundary"]}
             for rec in sorted(tri.edges, key=lambda r: r.id)]
    doc = {"triangles": sorted(tri.triangles), "edges": edges}
    if tri.signature is not None:
        g, c, m = tri.signature
        doc["signature"] = {"g": g, "c": c, "m": m}
    return doc


def reference_hive(pairs, tri=None):
    doc = {"values": {key: {"thirds": x} for key, x in pairs if x is not None}}
    if tri is not None:
        doc["triangulation"] = reference_triangulation(tri)
    return doc


def reference_web(pairs, tri=None):
    doc = {"coords": {t: dict(zip("xyztuvw", c)) for t, c in pairs}}
    if tri is not None:
        doc["triangulation"] = reference_triangulation(tri)
    return doc


ODD = ["boundary", "0-1", "0-10", "0-2", "1-10", "é", "日本", "\U0001d538\U0001f600", 'q"x',
       "b\\s", "\t\n\x00\x1f\x7f", "\ud800", "", " ", "c:0-1-2", "e:0-1:0", "e:0-10:0"]
IDS = st.one_of(st.sampled_from(ODD), st.text(max_size=4))
INTS = st.one_of(st.sampled_from([CAP, -CAP, 0, -1]), st.integers(-CAP, CAP))
# other JSON scalars take json.dumps's own path
SCALARS = st.one_of(INTS, st.booleans(), st.none(),
                    st.floats(allow_nan=False), st.sampled_from(["x", "é"]))
LABELS = st.one_of(INTS, IDS)


@st.composite
def triangulations(draw):
    triangles = draw(st.lists(IDS, unique=True, max_size=5))
    cells = st.sampled_from(triangles) if triangles and draw(st.booleans()) else IDS
    attach = st.tuples(cells, st.one_of(st.integers(0, 2), INTS))
    ids = draw(st.lists(IDS, unique=True, max_size=7))
    edges = [EdgeRec(eid, draw(LABELS), draw(LABELS), draw(attach), draw(st.none() | attach))
             for eid in ids]
    signature = draw(st.none() | st.tuples(INTS, INTS, INTS))
    return Triangulation(triangles, edges, signature)


@settings(max_examples=40, deadline=None)
@given(triangulations())
def test_triangulation_text_is_json_dumps_of_the_reference(tri):
    assert tri.to_text() == canonical(reference_triangulation(tri))
    assert tri.to_json() == reference_triangulation(tri)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ODD) | st.text(max_size=3),
                          st.one_of(st.none(), INTS, SCALARS))),
       st.none() | triangulations())
def test_hive_text_is_json_dumps_of_the_reference(pairs, tri):
    assert hive_doc(pairs, tri) == canonical(reference_hive(pairs, tri))


WEB_TUPLES = st.tuples(st.integers(-CAP, 0) | INTS, *[INTS] * 6)


# json.dumps writes an int key as its text, sorted as an int
@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ODD) | st.text(max_size=3), WEB_TUPLES))
       | st.lists(st.tuples(INTS, WEB_TUPLES)),
       st.none() | triangulations())
def test_web_text_is_json_dumps_of_the_reference(pairs, tri):
    assert web_doc(pairs, tri) == canonical(reference_web(pairs, tri))


def test_polygon_documents_in_position_order_are_written_sorted():
    tri = build_polygon(12, [(0, i) for i in range(2, 11)])
    assert list(tri.keys) != sorted(tri.keys)  # e:0-10 sorts before e:0-2 and e:0-1
    thirds = sample_hive(tri, 2, 3)
    web = {t: (t.count("1") - 1, 0, 1, 2, 3, 4, 5) for t in tri.triangles}
    assert hive_doc(zip(tri.keys, thirds), tri) == canonical(
        reference_hive(zip(tri.keys, thirds), tri))
    assert hive_to_json(tri, thirds) == reference_hive(zip(tri.keys, thirds), tri)
    assert web_doc(web.items(), tri) == canonical(reference_web(web.items(), tri))
    assert surface_web_to_json(tri, web, inline=False) == reference_web(web.items())
