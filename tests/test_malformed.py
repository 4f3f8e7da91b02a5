"""The exit-code contract on malformed input.

A document or flag of the wrong shape exits 2 with nothing on stdout and one
``hiveweb: ...`` line on stderr, whichever reader trips on it; every integer
in a document obeys one rule (an exact int within ``HIVEWEB_MAX_THIRDS``);
unknown names stay semantic (exit 1).  Each library reader raises nothing but
``MalformedInput`` or a domain error on any single-node mutation of a valid
document, with the text the command line prints; a Hypothesis test runs such
mutations through ``run()`` and checks that it never raises.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiveweb
from hiveweb import hive, surface, web
from hiveweb.cli import run
from hiveweb.errors import HivewebError, MalformedInput
from hiveweb.hive import (hive_thirds_from_json, hive_to_json, hive_values_from_json,
                          triangle_thirds_from_json)
from hiveweb.metric import OrientedGraph
from hiveweb.sampling import sample_hive
from hiveweb.surface import Triangulation, build_polygon
from hiveweb.thirds import max_thirds, read_array, read_object
from hiveweb.web import hive_to_surface_web, surface_web_to_json, surface_web_from_json

TRI = build_polygon(5, [(0, 2), (0, 3)])
VALUES = sample_hive(TRI, 2, seed=1)
DOCS = {
    "triangulation": TRI.to_json(),
    "hive": hive_to_json(TRI, VALUES),
    "web": surface_web_to_json(TRI, hive_to_surface_web(TRI, VALUES)),
    "triangle-hive": {f"a{i}": {"thirds": n}
                      for i, n in enumerate((12, 10, 9, 19, 14, 13, 11), start=1)},
    # the id 1 is what true and 1.0 would find by hash
    "graph": {"vertices": ["u", "v", "w", 1], "arcs": [["u", "v"], ["v", "w"], ["w", "u"]]},
}
# the commands that read each kind of document; {doc} is its path, {tri} a valid triangulation
COMMANDS = {
    "triangulation": (["validate", "--triangulation", "{doc}"],
                      ["sample", "--triangulation", "{doc}", "--bound", "1", "--seed", "0"],
                      ["flip", "--triangulation", "{doc}", "--edge", "0-2"]),
    "hive": (["validate", "--hive", "{doc}"], ["hive2web", "--hive", "{doc}"],
             ["potential", "--hive", "{doc}"], ["cone", "--hive", "{doc}"],
             ["flip", "--triangulation", "{tri}", "--edge", "0-3", "--hive", "{doc}"]),
    "web": (["validate", "--web", "{doc}"], ["web2hive", "--web", "{doc}"]),
    "triangle-hive": (["hive2web", "--hive", "{doc}"],),
    "graph": (["dist", "--graph", "{doc}", "--from", "u", "--to", "w"],),
}


def invoke(argv, doc, workdir: Path):
    """Exit code, stdout and stderr of ``run(argv)`` with ``doc`` at {doc}."""
    paths = {"doc": workdir / "doc.json", "tri": workdir / "tri.json", "dir": workdir}
    paths["doc"].write_text(json.dumps(doc))
    paths["tri"].write_text(json.dumps(DOCS["triangulation"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([arg.format(**paths) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def changed(kind, path, value):
    """A copy of the valid ``kind`` document with the node at ``path`` set to
    ``value``, or deleted when ``value`` is ``DROP``."""
    doc = copy.deepcopy(DOCS[kind])
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


DROP = object()
FIRST_TRIANGLE = sorted(TRI.triangles)[0]
FIRST_VALUE = sorted(DOCS["hive"]["values"])[0]

MALFORMED = {
    "hive value float": ("hive", ("values", FIRST_VALUE, "thirds"), 14.5),
    "hive value string": ("hive", ("values", FIRST_VALUE, "thirds"), "14"),
    "hive value bool": ("hive", ("values", FIRST_VALUE, "thirds"), True),
    "hive value bare int": ("hive", ("values", FIRST_VALUE), 5),
    "hive value extra key": ("hive", ("values", FIRST_VALUE, "note"), 1),
    "hive values a list": ("hive", ("values",), [{"thirds": 0}]),
    "hive key no vertex key": ("hive", ("values", "x"), {"thirds": 0}),
    "hive key without a slot": ("hive", ("values", "e:0-1"), {"thirds": 0}),
    "hive key with slot 2": ("hive", ("values", "e:0-1:2"), {"thirds": 0}),
    "triangulation no edges": ("triangulation", ("edges",), DROP),
    "triangulation attach an int": ("triangulation", ("edges", 0, "attach"), 3),
    "triangulation attach of three": (
        "triangulation", ("edges", 0, "attach"),
        [*DOCS["triangulation"]["edges"][0]["attach"], "boundary"]),
    "triangulation attachment of three": (
        "triangulation", ("edges", 0, "attach", 0),
        [*DOCS["triangulation"]["edges"][0]["attach"][0], 7]),
    "triangulation second attachment of three": (
        "triangulation", ("edges", 1, "attach", 1),
        [*DOCS["triangulation"]["edges"][1]["attach"][1], 7]),
    "triangulation triangles a string": ("triangulation", ("triangles",), "abc"),
    "triangulation triangles an object": (
        "triangulation", ("triangles",), dict.fromkeys(TRI.triangles, 0)),
    "triangulation edges an empty string": ("triangulation", ("edges",), ""),
    "triangulation triangle id float": ("triangulation", ("triangles", 0), 1.5),
    "triangulation triangle id bool": ("triangulation", ("triangles", 0), True),
    "triangulation edge id a list": ("triangulation", ("edges", 0, "id"), ["x"]),
    "triangulation edge id null": ("triangulation", ("edges", 0, "id"), None),
    "triangulation attached triangle float": (
        "triangulation", ("edges", 0, "attach", 0, 0), 1.5),
    "triangulation attachment of one": ("triangulation", ("edges", 0, "attach", 0), ["0-1-2"]),
    "triangulation edge a list": ("triangulation", ("edges", 1), ["0-2"]),
    "triangulation edge without attach": ("triangulation", ("edges", 1, "attach"), DROP),
    "triangulation signature without m": ("triangulation", ("signature", "m"), DROP),
    "web coordinate float": (
        "web", ("coords", FIRST_TRIANGLE, "y"),
        DOCS["web"]["coords"][FIRST_TRIANGLE]["y"] + 0.7),
    "web triangle without y": ("web", ("coords", FIRST_TRIANGLE, "y"), DROP),
    "web document without coords": ("web", ("coords",), DROP),
    "web coords a list": ("web", ("coords",), [DOCS["web"]["coords"][FIRST_TRIANGLE]]),
    "web entry a list": (
        "web", ("coords", FIRST_TRIANGLE), list(DOCS["web"]["coords"][FIRST_TRIANGLE].values())),
    "hive document without values": ("hive", ("values",), DROP),
    "triangle hive bare ints": ("triangle-hive", ("a1",), 3),
    "triangle hive without a3": ("triangle-hive", ("a3",), DROP),
    "graph no arcs": ("graph", ("arcs",), DROP),
    "graph vertices a string": ("graph", ("vertices",), "uvw"),
    "graph arcs an object": ("graph", ("arcs",), {"uv": 0, "vw": 1}),
    "graph arc a string": ("graph", ("arcs", 0), "uv"),
    "graph arc of three": ("graph", ("arcs", 0), ["u", "v", "w"]),
    "graph vertex bool": ("graph", ("vertices",), ["u", "v", "w", True]),
    "graph vertex float": ("graph", ("vertices",), ["u", "v", "w", 1.5]),
    "graph vertex null": ("graph", ("vertices",), ["u", "v", "w", None]),
    "graph arc to an unknown vertex": ("graph", ("arcs", 0, 1), "x"),
    "graph arc to a list": ("graph", ("arcs", 0, 1), ["v"]),
    "graph arc from true": ("graph", ("arcs", 0, 0), True),
    "graph arc from a float": ("graph", ("arcs", 0, 0), 1.0),
    "graph vertex twice": ("graph", ("vertices",), ["u", "v", "w", "u"]),
}
# a whole document that is a list (hive2web and flip --hive refused a listed hive already)
WHOLE = {
    "hive document a list": ("hive", [DOCS["hive"]], ("validate", "potential", "cone")),
    "triangulation a list": ("triangulation", [DOCS["triangulation"]], None),
    "graph a list": ("graph", [DOCS["graph"]], None),
    "web document a list": ("web", [DOCS["web"]], None),
}
SIZE_FLAGS = (
    ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "-1"],
    ["sample", "--triangulation", "{tri}", "--seed", "0", "--bound", "-1"],
    ["oracle", "--sweep", "-1"],
)
# --out paths that cannot be written, on a result and on the exit-1 error report
UNWRITABLE_OUT = (
    ("triangulation", ["gamma-dist", "--to", "1,1", "--out", "{dir}/missing/x.json"]),
    ("triangulation", ["gamma-dist", "--to", "1,1", "--out", "{dir}"]),
    ("graph", ["dist", "--graph", "{doc}", "--from", "x", "--to", "u",
               "--out", "{dir}/missing/x.json"]),
    ("triangulation", ["flip", "--triangulation", "{doc}", "--edge", "9-9", "--out", "{dir}"]),
)


def _cases():
    for name, (kind, path, value) in MALFORMED.items():
        for argv in COMMANDS[kind]:
            yield pytest.param(argv, changed(kind, path, value), id=f"{name}: {argv[0]}")
    for name, (kind, doc, only) in WHOLE.items():
        for argv in COMMANDS[kind]:
            if only is None or argv[0] in only:
                yield pytest.param(argv, doc, id=f"{name}: {argv[0]}")


@pytest.mark.parametrize("argv,doc", _cases())
def test_malformed_document_exits_two(argv, doc, tmp_path):
    code, out, err = invoke(argv, doc, tmp_path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("hiveweb: "), err


UNREADABLE = {
    "nested too deep": (b"[" * 100_000 + b"]" * 100_000, "{raw} is not valid JSON: "),
    "not utf-8": (b'{"values": "\xff"}', "{raw} is not valid JSON: "),
    # open() refuses a path with a null byte by ValueError, not OSError
    "triangulation path with a null byte": (
        b'{"triangulation": "t\\u0000.json", "values": {}}',
        "cannot read {dir}/t\0.json: embedded null byte\n"),
}


@pytest.mark.parametrize("raw,start", UNREADABLE.values(), ids=UNREADABLE)
def test_unreadable_document_exits_two(raw, start, tmp_path):
    (tmp_path / "raw.json").write_bytes(raw)
    code, out, err = invoke(["validate", "--hive", str(tmp_path / "raw.json")], {}, tmp_path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1, err
    assert err.startswith("hiveweb: " + start.format(raw=tmp_path / "raw.json", dir=tmp_path)), err


@pytest.mark.parametrize("argv", SIZE_FLAGS, ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_negative_size_is_a_usage_error(argv, tmp_path):
    code, out, err = invoke(argv, DOCS["triangulation"], tmp_path)
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if line.startswith("hiveweb")] == [
        f"hiveweb {argv[0]}: error: argument {argv[-2]}: "
        "expected a non-negative integer, got '-1'"
    ]


@pytest.mark.parametrize("kind,argv", UNWRITABLE_OUT,
                         ids=lambda case: " ".join(case) if isinstance(case, list) else case)
def test_unwritable_out_exits_two(kind, argv, tmp_path):
    code, out, err = invoke(argv, DOCS[kind], tmp_path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("hiveweb: cannot write "), err


# a flag given an empty value reaches its reader, which refuses it; none of
# these is read as the flag left out
EMPTY_VALUES = {
    "validate --hive": (["validate", "--hive", "", "--triangulation", "{doc}"],
                        "cannot read : "),
    "validate --web": (["validate", "--web", "", "--triangulation", "{doc}"], "cannot read : "),
    "validate --triangulation": (["validate", "--triangulation", ""], "cannot read : "),
    "validate --hive with --triangulation": (
        ["validate", "--hive", "{doc}", "--triangulation", ""], "cannot read : "),
    "flip --hive": (["flip", "--triangulation", "{tri}", "--edge", "0-2", "--hive", ""],
                    "cannot read : "),
    "potential --triangulation": (["potential", "--hive", "{doc}", "--triangulation", ""],
                                  "cannot read : "),
    "web2hive --web": (["web2hive", "--web", ""], "cannot read : "),
    "web2hive --coords": (["web2hive", "--coords", ""],
                          "--coords needs 7 comma-separated integers, got ''\n"),
    "oracle --coords": (["oracle", "--coords", ""],
                        "--coords needs 7 comma-separated integers, got ''\n"),
    "gamma-dist --from": (["gamma-dist", "--to", "1,1", "--from", ""],
                          "--from needs 2 comma-separated integers, got ''\n"),
    "sample --out": (["sample", "--triangulation", "{tri}", "--bound", "1", "--seed", "0",
                      "--out", ""], "cannot write : "),
    "flip --out on the error report": (
        ["flip", "--triangulation", "{tri}", "--edge", "9-9", "--out", ""], "cannot write : "),
}


@pytest.mark.parametrize("argv,start", EMPTY_VALUES.values(), ids=EMPTY_VALUES)
def test_an_empty_flag_value_is_not_an_absent_flag(argv, start, tmp_path):
    code, out, err = invoke(argv, DOCS["hive"], tmp_path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("hiveweb: " + start), err


def test_web_coordinates_are_capped(tmp_path, monkeypatch):
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", "1")
    web = changed("web", ("coords", FIRST_TRIANGLE, "x"), 2)
    code, out, err = invoke(["web2hive", "--web", "{doc}"], web, tmp_path)
    assert (code, out) == (2, "")
    assert "HIVEWEB_MAX_THIRDS=1" in err


# an attachment's length is checked after its reads, so a pair those reads
# fail on keeps their message
ATTACHMENT_ERRORS = {
    "extra entry": (["0-1-2", 0, 7], 'attachment to triangle "0-1-2": 3 entries, expected 2'),
    "two extra entries": (["0-1-2", 0, 7, 8],
                          'attachment to triangle "0-1-2": 4 entries, expected 2'),
    "bad side first": (["0-1-2", "x", 7], 'side: expected an integer, got "x"'),
    "bad triangle first": ([1.5, 0, 7], "triangle id: expected a string or an integer, got 1.5"),
    "too short": (["0-1-2"], 'attachment ["0-1-2"] is not a [triangle, side] pair'),
}


@pytest.mark.parametrize("pair,message", ATTACHMENT_ERRORS.values(), ids=ATTACHMENT_ERRORS)
def test_attachment_pair_errors_keep_their_message(pair, message, tmp_path):
    doc = changed("triangulation", ("edges", 0, "attach", 0), pair)
    code, out, err = invoke(["validate", "--triangulation", "{doc}"], doc, tmp_path)
    assert (code, out, err) == (2, "", f"hiveweb: {message}\n")


# an attach that is not an array, or whose first entry is not a pair or whose
# second is neither a pair nor "boundary"; a string used to be read character
# by character ('side: expected an integer, got "o"', or an IndexError)
WRONG_ATTACH = {
    "attach a string": "boundary",
    "first attachment a string": ["boundary"],
    "second attachment a string": [["0-1-2", 0], "outside"],
    "second attachment null": [["0-1-2", 0], None],
    "attach an int": 3,
    "attach empty": [],
}


@pytest.mark.parametrize("argv", COMMANDS["triangulation"], ids=lambda argv: argv[0])
@pytest.mark.parametrize("attach", WRONG_ATTACH.values(), ids=WRONG_ATTACH)
def test_an_attach_of_the_wrong_shape_names_its_edge(argv, attach, tmp_path):
    doc = changed("triangulation", ("edges", 0, "attach"), attach)
    assert invoke(argv, doc, tmp_path) == (
        2, "", 'hiveweb: edge "0-1": attach must list a [triangle, side] pair and optionally '
               'another or "boundary"\n')


@pytest.mark.parametrize("argv,doc,error", [
    (["flip", "--triangulation", "{doc}", "--edge", "9-9"], DOCS["triangulation"], "KeyError"),
    (["dist", "--graph", "{doc}", "--from", "x", "--to", "u"], DOCS["graph"], "KeyError"),
    (["validate", "--web", "{doc}"], changed("web", ("coords", FIRST_TRIANGLE, "y"), -1),
     "InvalidWebCoords"),
])
def test_unknown_names_stay_semantic(argv, doc, error, tmp_path):
    code, out, _ = invoke(argv, doc, tmp_path)
    assert code == 1
    assert json.loads(out)["error"] == error


FIRST_EDGE_KEY = next(key for key in sorted(DOCS["hive"]["values"]) if key.startswith("e:"))


# int() reads each of these slots as the first edge key's slot 0; the reader does not
SLOTS = ["00", "+0", " 0", "0 ", "\u0660", "\uff10"]  # Arabic-Indic and fullwidth zero
ALIASES = [FIRST_EDGE_KEY[:-1] + slot for slot in SLOTS]
ORDERS = {"canonical first": False, "alias first": True, "alias alone": None}


def aliased(alias, alias_first):
    """The hive document with ``alias``, a spelling of its first edge key
    that is not that key, beside the key (after it, or before it when
    ``alias_first``) or, when ``alias_first`` is None, in its place; and the
    message that refuses it."""
    values = dict(DOCS["hive"]["values"])
    value = values.pop(FIRST_EDGE_KEY)
    pair = [(FIRST_EDGE_KEY, value), (alias, {"thirds": value["thirds"] + 3})]
    if alias_first is None:
        pair = [(alias, value)]
    first, *second = pair[::-1] if alias_first else pair
    doc = dict(DOCS["hive"], values={first[0]: first[1], **values, **dict(second)})
    return doc, f"values: {json.dumps(alias)} is not a vertex key"


@pytest.mark.parametrize("alias_first", ORDERS.values(), ids=ORDERS)
@pytest.mark.parametrize("alias", ALIASES)
@pytest.mark.parametrize("argv", COMMANDS["hive"], ids=lambda argv: argv[0])
def test_aliased_vertex_keys_exit_two(argv, alias, alias_first, tmp_path):
    doc, message = aliased(alias, alias_first)
    code, out, err = invoke(argv, doc, tmp_path)
    assert (code, out) == (2, "")
    assert err == f"hiveweb: {message}\n"


def library_reads(doc):
    """The ``MalformedInput`` that ``hive_values_from_json`` raises on ``doc``."""
    with pytest.raises(MalformedInput) as info:
        hive_values_from_json(doc)
    return str(info.value)


READ_ALIKE = [pytest.param(changed(kind, path, value), id=name)
              for name, (kind, path, value) in MALFORMED.items() if kind == "hive"]
READ_ALIKE += [pytest.param(aliased(alias, alias_first)[0], id=f"{alias}-{order}")
               for alias in ALIASES for order, alias_first in ORDERS.items()]


@pytest.mark.parametrize("doc", READ_ALIKE)
def test_the_library_reader_is_the_cli_reader(doc, tmp_path):
    code, out, err = invoke(["validate", "--hive", "{doc}"], doc, tmp_path)
    assert (code, out) == (2, "")
    assert err == f"hiveweb: {library_reads(doc)}\n"


def test_the_library_reader_refuses_a_document_that_is_a_list():
    assert library_reads([DOCS["hive"]]) == "hive document: expected an object, got array"


# a JSON value of each type but an object, and of each type but an array
NOT_AN_OBJECT = {"array": [], "string": "{}", "number": 3, "boolean": True, "null": None}
NOT_AN_ARRAY = {"object": {}, "string": "[]", "number": 1.5, "boolean": False, "null": None}


@pytest.mark.parametrize("name,value", NOT_AN_OBJECT.items(), ids=NOT_AN_OBJECT)
def test_the_object_reader_names_json_types(name, value):
    with pytest.raises(MalformedInput) as info:
        read_object(value, "document")
    assert str(info.value) == f"document: expected an object, got {name}"


@pytest.mark.parametrize("name,value", NOT_AN_ARRAY.items(), ids=NOT_AN_ARRAY)
def test_the_array_reader_names_json_types(name, value):
    with pytest.raises(MalformedInput) as info:
        read_array({"edges": value}, "document", "edges")
    assert str(info.value) == f"edges: expected an array, got {name}"


def test_an_arc_endpoint_that_hashes_like_a_vertex_is_unknown():
    with pytest.raises(MalformedInput) as info:
        OrientedGraph.from_json({"vertices": [1, "v"], "arcs": [[True, "v"], [1.0, "v"]]})
    assert str(info.value) == 'arc (true, "v") has an unknown endpoint'


@pytest.mark.parametrize("doc,message", [
    ({"vertices": [None], "arcs": []}, "vertices: null is neither a string nor an integer"),
    ({"vertices": [True], "arcs": []}, "vertices: true is neither a string nor an integer"),
    ({"vertices": [1.5], "arcs": []}, "vertices: 1.5 is neither a string nor an integer"),
    ({"vertices": [{"v": [1]}], "arcs": []},
     'vertices: {"v":[1]} is neither a string nor an integer'),
    ({"vertices": ["v", "v"], "arcs": []}, 'vertices: "v" is listed twice'),
    ({"vertices": ["v"], "arcs": [["v", None, "v"]]},
     'arcs: ["v",null,"v"] is not a [tail, head] pair'),
    ({"vertices": ["v"], "arcs": ["v-v"]}, 'arcs: "v-v" is not a [tail, head] pair'),
    ({"vertices": ["v"], "arcs": [["v", False]]}, 'arc ("v", false) has an unknown endpoint'),
    ({"vertices": ["v"], "arcs": [["v", "u"]]}, 'arc ("v", "u") has an unknown endpoint'),
    ({"vertices": [1], "arcs": [[1, 2]]}, "arc (1, 2) has an unknown endpoint"),
])
def test_the_graph_reader_shows_values_as_json(doc, message):
    with pytest.raises(MalformedInput) as info:
        OrientedGraph.from_json(doc)
    assert str(info.value) == message


def test_the_graph_constructor_shows_python_names_by_repr():
    """Names JSON cannot hold, such as the tuples of nets, are shown as a
    Python caller wrote them, and a message is made for any name."""
    odd = object()
    cases = [
        ([(0, 1), (0, 1)], [], "vertices: (0, 1) is listed twice"),
        ([(0, 1)], [((0, 1), (0, 2))], "arc ((0, 1), (0, 2)) has an unknown endpoint"),
        (["u"], [("u", odd)], f"arc (\"u\", {odd!r}) has an unknown endpoint"),
        (["u"], [([odd], "u")], f"arc ([{odd!r}], \"u\") has an unknown endpoint"),
    ]
    for vertices, arcs, message in cases:
        with pytest.raises(MalformedInput) as info:
            OrientedGraph(vertices, arcs)
        assert str(info.value) == message


def test_the_graph_constructor_refuses_an_unhashable_endpoint():
    """A document's list endpoint is refused by ``from_json`` before the
    constructor sees it; a library caller's reaches the constructor."""
    with pytest.raises(MalformedInput) as info:
        OrientedGraph(["u", "v"], [(["v"], "u")])
    assert str(info.value) == 'arc (["v"], "u") has an unknown endpoint'


@pytest.mark.parametrize("doc,message", [
    ({}, "hive document: no values"),
    ({"values": {5: {"thirds": 0}}}, "values: 5 is not a vertex key"),
], ids=["no values", "an int key"])
def test_the_library_reader_names_the_field(doc, message):
    assert library_reads(doc) == message


WEB_READ_ALIKE = [pytest.param(changed(kind, path, value), id=name)
                  for name, (kind, path, value) in MALFORMED.items() if kind == "web"]
WEB_READ_ALIKE.append(pytest.param([DOCS["web"]], id="web document a list"))


@pytest.mark.parametrize("argv", COMMANDS["web"], ids=lambda argv: argv[0])
@pytest.mark.parametrize("doc", WEB_READ_ALIKE)
def test_the_web_reader_is_the_cli_reader(argv, doc, tmp_path):
    with pytest.raises(MalformedInput) as info:
        surface_web_from_json(doc)
    assert invoke(argv, doc, tmp_path) == (2, "", f"hiveweb: {info.value}\n")


def _embedded(doc):
    """The triangulation a hive or web document carries inline, read as the
    command line reads it, else ``TRI``."""
    ref = doc.get("triangulation") if isinstance(doc, dict) else None
    return Triangulation.from_json(ref) if isinstance(ref, dict) else TRI


# the library reader of each kind of document
READERS = {
    "triangulation": Triangulation.from_json,
    "hive": lambda doc: hive_thirds_from_json(doc, _embedded(doc)),
    "web": lambda doc: (_embedded(doc), surface_web_from_json(doc)),
    "triangle-hive": triangle_thirds_from_json,
    "graph": OrientedGraph.from_json,
}
OTHER_READ_ALIKE = ("triangulation attachment of one", "triangle hive without a3",
                    "graph arc to an unknown vertex")


@pytest.mark.parametrize("name", OTHER_READ_ALIKE)
def test_the_other_readers_are_the_cli_readers(name, tmp_path):
    kind, path, value = MALFORMED[name]
    doc = changed(kind, path, value)
    with pytest.raises(MalformedInput) as info:
        READERS[kind](doc)
    for argv in COMMANDS[kind]:
        assert invoke(argv, doc, tmp_path) == (2, "", f"hiveweb: {info.value}\n"), argv


# where each kind of document is read on the command line
READER_OWNERS = {"triangulation": (Triangulation, "from_json"),
                 "hive": (hive, "hive_thirds_from_json"), "web": (web, "surface_web_from_json"),
                 "triangle-hive": (hive, "triangle_thirds_from_json"),
                 "graph": (OrientedGraph, "from_json")}


@pytest.mark.parametrize("kind", READER_OWNERS)
def test_a_bug_in_a_reader_is_not_reported_as_malformed_input(kind, tmp_path, monkeypatch):
    """Only a reader words malformed input: any other error it raises escapes ``run()``."""
    def bug(*args):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(*READER_OWNERS[kind], bug)
    with pytest.raises(TypeError, match="a bug, not bad input"):
        invoke(COMMANDS[kind][0], DOCS[kind], tmp_path)


@pytest.mark.parametrize("kind,argv", [(kind, argv) for kind in ("hive", "web")
                                       for argv in COMMANDS[kind]],
                         ids=lambda case: " ".join(case[:2]) if isinstance(case, list) else case)
def test_a_document_that_is_a_list_is_named_by_its_reader(kind, argv, tmp_path):
    assert invoke(argv, [DOCS[kind]], tmp_path) == (
        2, "", f"hiveweb: {kind} document: expected an object, got array\n")


# -- the cap --------------------------------------------------------------------

CAP = 50
# one integer at each place a document carries one, and the name it is read under
CAPPED = {
    "label": ("triangulation", ("edges", 0, "tail"), "label"),
    "first attachment side": ("triangulation", ("edges", 0, "attach", 0, 1), "side"),
    "second attachment side": ("triangulation", ("edges", 1, "attach", 1, 1), "side"),
    "hive value": ("hive", ("values", FIRST_VALUE, "thirds"), FIRST_VALUE),
    "web coordinate": ("web", ("coords", FIRST_TRIANGLE, "x"), "x"),
}


@pytest.fixture
def capped(monkeypatch):
    """``HIVEWEB_MAX_THIRDS=CAP``, with the cap read afresh before and after."""
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", str(CAP))
    max_thirds.cache_clear()
    yield
    max_thirds.cache_clear()


@pytest.mark.parametrize("kind,path,what", CAPPED.values(), ids=CAPPED)
def test_the_cap_admits_itself_and_refuses_one_more(kind, path, what, tmp_path, capped):
    refused = {CAP + 1: f"|{CAP + 1}| exceeds HIVEWEB_MAX_THIRDS={CAP}",
               -CAP - 1: f"|{-CAP - 1}| exceeds HIVEWEB_MAX_THIRDS={CAP}",
               True: "expected an integer, got true"}
    for argv in COMMANDS[kind]:
        for value in (CAP, -CAP):
            code, _, err = invoke(argv, changed(kind, path, value), tmp_path)
            assert (code in (0, 1), err) == (True, ""), (argv, value)
        for value, message in refused.items():
            assert invoke(argv, changed(kind, path, value), tmp_path) == (
                2, "", f"hiveweb: {what}: {message}\n"), (argv, value)


def test_ints_at_the_cap_pass_the_inline_tests(capped, monkeypatch):
    """The loaders read a document whose ints lie within the cap, some at it,
    without the general readers, which are there to word errors."""
    def general(*args):
        raise AssertionError(f"general reader called on {args!r}")

    tri_doc = copy.deepcopy(DOCS["triangulation"])
    tri_doc["edges"][0].update(tail=CAP, head=-CAP, attach=[["0-1-2", CAP], "boundary"])
    tri_doc["edges"][1]["attach"][1][1] = -CAP
    values = {**DOCS["hive"]["values"], FIRST_VALUE: {"thirds": CAP},
              FIRST_EDGE_KEY: {"thirds": -CAP}}  # the inline test reads complete hives
    coords = dict(DOCS["web"]["coords"][FIRST_TRIANGLE], x=-CAP, y=CAP)
    for module, name in ((surface, "_read_edge"), (hive, "read_thirds"), (web, "checked_int")):
        monkeypatch.setattr(module, name, general)
    edge0, edge1 = Triangulation.from_json(tri_doc).edges[:2]
    assert (edge0.tail, edge0.head, edge0.attach0, edge1.attach1[1]) == (
        CAP, -CAP, ("0-1-2", CAP), -CAP)
    read, _ = hive_thirds_from_json({"values": values}, TRI)
    assert (read[TRI.index[FIRST_VALUE]], read[TRI.index[FIRST_EDGE_KEY]]) == (CAP, -CAP)
    assert surface_web_from_json({"coords": {"t": coords}})["t"][:2] == (-CAP, CAP)


# where an unparsable cap is first read: at the first int, after any error found before it
UNPARSABLE = {
    "no int read": ({"triangles": [], "edges": []}, ["validate", "--triangulation"], 0, ""),
    "first int of a triangulation": (
        DOCS["triangulation"], ["validate", "--triangulation"], 2, "{cap}"),
    "bad id of a boundary edge, before its labels": (
        changed("triangulation", ("edges", 0, "id"), 1.5), ["validate", "--triangulation"], 2,
        "edge id: expected a string or an integer, got 1.5"),
    "bad id of an interior edge, after its second side": (
        {**DOCS["triangulation"], "edges": [changed("triangulation", ("edges", 1, "id"), 1.5)[
            "edges"][1]]}, ["validate", "--triangulation"], 2, "{cap}"),
    "a bad key before the first value": (
        {"triangulation": {"triangles": [], "edges": []},
         "values": {"x": {"thirds": 0}, "c:t": {"thirds": 0}}}, ["validate", "--hive"], 2,
        'values: "x" is not a vertex key'),
    "the first value before a bad key": (
        {"triangulation": {"triangles": [], "edges": []},
         "values": {"c:t": {"thirds": 0}, "x": {"thirds": 0}}}, ["validate", "--hive"], 2, "{cap}"),
    "the first web coordinate": (
        {"triangulation": {"triangles": [], "edges": []}, "coords": {"t": {"x": 0}}},
        ["validate", "--web"], 2, "{cap}"),
    "a size flag, as the arguments are parsed": (
        {"triangles": [], "edges": []}, ["sample", "--bound", "0", "--seed", "0", "--triangulation"],
        2, "{cap}"),
}


@pytest.mark.parametrize("doc,argv,code,message", UNPARSABLE.values(), ids=UNPARSABLE)
def test_an_unparsable_cap_fails_where_it_is_first_read(doc, argv, code, message, tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", "ten")
    err = "" if not message else "hiveweb: " + message.format(
        cap="HIVEWEB_MAX_THIRDS='ten' is not an integer") + "\n"
    got = invoke([*argv, "{doc}"], doc, tmp_path)
    assert (got[0], got[2]) == (code, err)


# each HIVEWEB_MAX_THIRDS that a size flag's grammar refuses, and its refusal
CAP_TEXTS = {
    "a space": (" 7", "HIVEWEB_MAX_THIRDS=' 7' is not an integer"),
    "an underscore": ("1_000", "HIVEWEB_MAX_THIRDS='1_000' is not an integer"),
    "a plus sign": ("+7", "HIVEWEB_MAX_THIRDS='+7' is not an integer"),
    "another script's digit": ("\u0663", "HIVEWEB_MAX_THIRDS='\u0663' is not an integer"),
    "minus one": ("-1", "HIVEWEB_MAX_THIRDS='-1' is not a non-negative integer"),
    "minus zero": ("-0", "HIVEWEB_MAX_THIRDS='-0' is not a non-negative integer"),
    "5000 digits": ("9" * 5000,
                    "HIVEWEB_MAX_THIRDS: a value of 5000 digits exceeds what int() converts"),
}


@pytest.mark.parametrize("raw,message", CAP_TEXTS.values(), ids=CAP_TEXTS)
def test_the_cap_is_written_as_a_size_flag_is(raw, message, tmp_path, monkeypatch):
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", raw)
    fermat = ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "6"]
    assert invoke(fermat, {}, tmp_path) == (2, "", f"hiveweb: {message}\n")
    assert invoke(["validate", "--hive", "{doc}"], DOCS["hive"], tmp_path) == (
        2, "", f"hiveweb: {message}\n")


def test_a_cap_of_leading_zeros_and_a_cap_of_zero_are_read(tmp_path, monkeypatch):
    fermat = ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "6"]
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", "0" * 5000 + "6")
    assert invoke(fermat, {}, tmp_path)[0] == 0
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", "0")
    assert invoke(["gamma-dist", "--to", "0,0"], {}, tmp_path) == (0, '{"thirds":0}\n', "")
    assert invoke(["gamma-dist", "--to", "0,1"], {}, tmp_path) == (
        2, "", "hiveweb: --to: |1| exceeds HIVEWEB_MAX_THIRDS=0\n")


def test_the_size_flags_read_the_cap_of_their_own_run(tmp_path, monkeypatch):
    fermat = ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "6"]
    assert invoke(fermat, {}, tmp_path)[0] == 0  # reads the default cap
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", "5")
    assert invoke(fermat, {}, tmp_path) == (
        2, "", "hiveweb: --window: |6| exceeds HIVEWEB_MAX_THIRDS=5\n")


def test_aliases_of_a_key_outside_the_triangulation_exit_two(tmp_path):
    argv = COMMANDS["hive"][-1]  # flip --hive carries the keys of other vertices through
    refused = (2, "", 'hiveweb: values: "e:9-9:01" is not a vertex key\n')
    for extra in ({"e:9-9:1": {"thirds": 0}, "e:9-9:01": {"thirds": 3}},
                  {"e:9-9:01": {"thirds": 3}}):
        doc = copy.deepcopy(DOCS["hive"])
        doc["values"].update(extra)
        assert invoke(argv, doc, tmp_path) == refused
    doc["values"] = {**DOCS["hive"]["values"], "e:9-9:1": {"thirds": 0}}
    code, out, _ = invoke(argv, doc, tmp_path)
    assert (code, json.loads(out)["hive"]["values"]["e:9-9:1"]) == (0, {"thirds": 0})


def test_parser_is_reused_without_changing_help_or_usage_errors(tmp_path):
    first = invoke(["sample", "--help"], {}, tmp_path)
    assert first[0] == 0 and first[1].startswith("usage: hiveweb sample")
    assert invoke(["sample", "--bound", "1"], {}, tmp_path)[0] == 2
    assert invoke(["sample", "--help"], {}, tmp_path) == first


def test_python_dash_m_runs_the_command():
    env = dict(os.environ, PYTHONPATH=str(Path(hiveweb.__file__).parents[1]))
    for module in ("hiveweb", "hiveweb.cli"):
        done = subprocess.run([sys.executable, "-m", module, "gamma-dist", "--to", "1,1"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, '{"thirds":2}\n'), done.stderr
    done = subprocess.run([sys.executable, "-m", "hiveweb", "frobnicate"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and "invalid choice" in done.stderr


def test_documents_are_read_and_written_as_utf8(tmp_path):
    """JSON text is UTF-8 whatever the locale: a read, an --out write and a
    triangulation named relative to its hive run with the warning for an
    encoding left to the locale turned into an error."""
    env = dict(os.environ, PYTHONPATH=str(Path(hiveweb.__file__).parents[1]))
    (tmp_path / "tri.json").write_text(json.dumps(DOCS["triangle-hive"]))
    (tmp_path / "t.json").write_text(json.dumps(DOCS["triangulation"]))
    (tmp_path / "h.json").write_text(json.dumps({**DOCS["hive"], "triangulation": "t.json"}))
    for argv, expected in (
            (["hive2web", "--hive", "tri.json"], '{"t":1,"u":1,"v":1,"w":1,"x":3,"y":2,"z":1}\n'),
            (["gamma-dist", "--to", "1,1", "--out", "o.json"], ""),
            (["validate", "--hive", "h.json"], '{"valid":true,"violations":[]}\n')):
        done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-m", "hiveweb", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, ""), argv
    assert (tmp_path / "o.json").read_text(encoding="utf-8") == '{"thirds":2}\n'


# -- mutation fuzzing ---------------------------------------------------------


def _paths(node, prefix=()):
    """The path to every node below the root."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = {kind: sorted(_paths(doc), key=repr) for kind, doc in DOCS.items()}


def _mutations(value):
    """Drop the node; retype it to a float, bool, string, list or null; nest
    it; or make it an oversized int."""
    return (DROP, 0.5, float(value) if type(value) is int else 1.0, True, str(value),
            [value], None, {"nested": value}, 10**13, -(10**13))


def _no_float(text):
    raise AssertionError(f"non-integer number {text!r} in output")


def _node(kind, path):
    """The node at ``path`` in the valid ``kind`` document."""
    node = DOCS[kind]
    for key in path:
        node = node[key]
    return node


def single_node_mutations():
    """(kind, the valid document of that kind with one node mutated), for each
    node below the root and each of its mutations."""
    for kind, paths in PATHS.items():
        for path in paths:
            for value in _mutations(_node(kind, path)):
                yield kind, changed(kind, path, value)


def test_each_reader_raises_only_malformed_input_on_every_single_node_mutation():
    raw, calls = [], 0
    for kind, doc in single_node_mutations():
        calls += 1
        try:
            READERS[kind](doc)
        except (MalformedInput, HivewebError):
            pass
        except Exception as exc:  # any other error is a reader bug, reported below
            raw.append((kind, doc, repr(exc)))
    assert calls == sum(len(PATHS[kind]) for kind in DOCS) * len(_mutations(0))
    assert not raw, f"{len(raw)} raw errors, the first: {raw[:3]}"


@st.composite
def mutated_runs(draw):
    kind = draw(st.sampled_from(sorted(DOCS)))
    path = draw(st.sampled_from(PATHS[kind]))
    argv = draw(st.sampled_from(COMMANDS[kind]))
    return argv, changed(kind, path, draw(st.sampled_from(_mutations(_node(kind, path)))))


@settings(max_examples=500, deadline=None)
@given(mutated_runs())
def test_mutated_documents_exit_zero_one_or_two(case):
    argv, doc = case
    with tempfile.TemporaryDirectory() as workdir:
        code, out, err = invoke(argv, doc, Path(workdir))
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("hiveweb: ")
    else:
        parsed = json.loads(out, parse_float=_no_float, parse_constant=_no_float)
        assert out == json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
