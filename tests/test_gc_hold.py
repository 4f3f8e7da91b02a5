"""``cli.run()`` holds the cyclic collector off for one command.

A command builds its documents, triangulations, hives and nets as acyclic
trees of dicts, lists and tuples, which refcounting frees when the command
returns.  So the collector, left on, would only walk live objects.  These
tests pin the hold and show that it loses nothing: with the collector held,
no command on any exit path leaves a cycle behind for it to free, none runs
a collection, and the caller's setting comes back however ``run()`` ends.
"""

from __future__ import annotations

import gc
import json

import pytest

from hiveweb import cli
from hiveweb.cli import run
from hiveweb.surface import build_polygon

ZERO_TRIANGLE = {f"a{i}": {"thirds": 0} for i in range(1, 8)}
# argparse's own error path leaves a few cycles behind on a usage error
USAGE_ERROR_GARBAGE = 6


def _fan(m: int) -> dict:
    return build_polygon(m, [(0, k) for k in range(2, m - 1)]).to_json()


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Paths of the documents the census reads, made through ``run()``."""
    d = tmp_path_factory.mktemp("gc")

    def write(name, doc):
        (d / name).write_text(json.dumps(doc))
        return str(d / name)

    paths = {"t": write("t.json", _fan(8)), "tri": write("tri.json", ZERO_TRIANGLE)}
    run(["sample", "--triangulation", paths["t"], "--bound", "2", "--seed", "1",
         "--out", str(d / "h.json")])
    run(["hive2web", "--hive", str(d / "h.json"), "--out", str(d / "w.json")])
    paths.update(h=str(d / "h.json"), w=str(d / "w.json"))
    hive = json.loads((d / "h.json").read_text())
    key = sorted(hive["values"])[0]
    hive["values"][key] = {"thirds": hive["values"][key]["thirds"] + 1}
    paths["bad_h"] = write("bad_h.json", hive)
    del hive["values"][key]
    paths["part_h"] = write("part_h.json", hive)
    web = json.loads((d / "w.json").read_text())
    web["coords"][sorted(web["coords"])[0]]["x"] += 1
    paths["bad_w"] = write("bad_w.json", web)
    tri = _fan(8)
    tri["edges"][0]["attach"][0][1] = 3
    paths["bad_t"] = write("bad_t.json", tri)
    paths["bad_tri"] = write("bad_tri.json", dict(ZERO_TRIANGLE, a4={"thirds": 1}))
    paths["g"] = write("g.json", {"vertices": ["u", "v", 1], "arcs": [["u", "v"]]})
    paths["malformed"] = write("malformed.json", {"triangles": 5})
    paths["empty"] = write("empty.json", {"values": {},
                                          "triangulation": {"triangles": [], "edges": []}})
    (d / "not.json").write_text("{")
    paths.update(not_json=str(d / "not.json"), missing=str(d / "missing.json"),
                 unwritable=str(d / "no-such-dir" / "out.json"))
    return paths


# argv with {name} for each document path, and the exit code
CENSUS = {
    "validate --triangulation": (["validate", "--triangulation", "{t}"], 0),
    "validate --triangulation invalid": (["validate", "--triangulation", "{bad_t}"], 1),
    "validate --triangulation malformed": (["validate", "--triangulation", "{malformed}"], 2),
    "validate --hive": (["validate", "--hive", "{h}"], 0),
    "validate --hive invalid": (["validate", "--hive", "{bad_h}"], 1),
    "validate --hive incomplete": (["validate", "--hive", "{part_h}"], 1),
    "validate --web": (["validate", "--web", "{w}"], 0),
    "validate --web mismatched": (["validate", "--web", "{bad_w}"], 1),
    "web2hive --coords": (["web2hive", "--coords", "3,2,1,1,1,1,1"], 0),
    "web2hive --coords negative corner": (["web2hive", "--coords", "0,-1,0,0,0,0,0"], 1),
    "web2hive --coords malformed": (["web2hive", "--coords", "1,2"], 2),
    "web2hive --web": (["web2hive", "--web", "{w}"], 0),
    "hive2web": (["hive2web", "--hive", "{h}"], 0),
    "hive2web invalid": (["hive2web", "--hive", "{bad_h}"], 1),
    "hive2web triangle": (["hive2web", "--hive", "{tri}"], 0),
    "hive2web triangle invalid": (["hive2web", "--hive", "{bad_tri}"], 1),
    "flip": (["flip", "--triangulation", "{t}", "--edge", "0-2"], 0),
    "flip --hive": (["flip", "--triangulation", "{t}", "--edge", "0-2", "--hive", "{h}"], 0),
    "flip --hive invalid": (["flip", "--triangulation", "{t}", "--edge", "0-2",
                             "--hive", "{bad_h}"], 1),
    "flip boundary edge": (["flip", "--triangulation", "{t}", "--edge", "0-1"], 1),
    "flip unknown edge": (["flip", "--triangulation", "{t}", "--edge", "9-9"], 1),
    "potential": (["potential", "--hive", "{h}"], 0),
    "potential without triangles": (["potential", "--hive", "{empty}"], 1),
    "cone": (["cone", "--hive", "{bad_h}"], 0),
    "oracle --coords": (["oracle", "--coords", "-17,6,0,3,6,1,2"], 0),
    "oracle --sweep": (["oracle", "--sweep", "5", "--bound", "3", "--seed", "2"], 0),
    "gamma-dist": (["gamma-dist", "--to", "-7,4", "--from", "5,-6"], 0),
    "gamma-dist malformed": (["gamma-dist", "--to", "a,b"], 2),
    "fermat": (["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2"], 0),
    "fermat --window": (["fermat", "--a", "-3,-1", "--b", "4,-1", "--c", "-3,5",
                         "--window", "6"], 0),
    "fermat --window too small": (["fermat", "--a", "-10,0", "--b", "8,0", "--c", "-10,9",
                                   "--window", "6"], 1),
    "fermat empty region": (["fermat", "--a", "0,0", "--b", "-1,0", "--c", "0,-1"], 1),
    "sample": (["sample", "--triangulation", "{t}", "--bound", "3", "--seed", "0"], 0),
    "dist": (["dist", "--graph", "{g}", "--from", "u", "--to", "v"], 0),
    "dist unreachable": (["dist", "--graph", "{g}", "--from", "v", "--to", "1"], 1),
    "dist unknown target": (["dist", "--graph", "{g}", "--from", "u", "--to", "w"], 1),
    "missing document": (["cone", "--hive", "{missing}"], 2),
    "document not JSON": (["cone", "--hive", "{not_json}"], 2),
    "--out unwritable": (["gamma-dist", "--to", "1,1", "--out", "{unwritable}"], 2),
}
USAGE_ERRORS = {
    "unknown subcommand": ["frobnicate"],
    "missing required flag": ["flip", "--edge", "0-2"],
    "size flag not a number": ["oracle", "--sweep", "x"],
}


@pytest.fixture
def held(request):
    """The collector off and nothing left for it, as a census needs.  The
    parser of the censused argv is built first, as ``run()`` chooses it: a
    process builds it once, not once per run."""
    name = request.node.callspec.params["name"]
    first = (CENSUS[name][0] if name in CENSUS else USAGE_ERRORS[name])[0]
    cli.build_parser(first if first in cli._COMMANDS else None)
    was = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if was:
        gc.enable()


def _argv(argv, docs):
    return [a.format(**docs) for a in argv]


@pytest.mark.parametrize("name", CENSUS)
def test_a_command_leaves_no_cycle_behind(name, docs, held, capsys):
    argv, code = CENSUS[name]
    assert run(_argv(argv, docs)) == code
    capsys.readouterr()
    assert gc.collect() == 0


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_a_usage_error_leaves_only_argparse_garbage(name, held, capsys):
    assert run(USAGE_ERRORS[name]) == 2
    capsys.readouterr()
    assert gc.collect() <= USAGE_ERROR_GARBAGE


@pytest.fixture
def collection_starts():
    """Count the collections that start while the test runs, with a gen-0
    threshold low enough that a command left unheld would make many."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(100, *thresholds[1:])
    gc.callbacks.append(count)
    yield starts
    gc.callbacks.remove(count)
    gc.set_threshold(*thresholds)
    if not was:
        gc.disable()


def test_no_collection_runs_inside_a_command(tmp_path, capsys, collection_starts):
    t = tmp_path / "t.json"
    t.write_text(json.dumps(_fan(200)))
    h = str(tmp_path / "h.json")
    assert run(["sample", "--triangulation", str(t), "--bound", "3", "--seed", "0",
                "--out", h]) == 0
    collection_starts.clear()
    code = run(["validate", "--hive", h])
    made = len(collection_starts)  # before anything after run() allocates
    capsys.readouterr()
    assert (code, made) == (0, 0)


@pytest.fixture(params=[True, False], ids=["caller enabled", "caller disabled"])
def caller(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv,code", [
    (["gamma-dist", "--to", "2,1"], 0),
    (["fermat", "--a", "0,0", "--b", "-1,0", "--c", "0,-1"], 1),
    (["gamma-dist", "--to", "a,b"], 2),
    (["frobnicate"], 2),
    (["--help"], 0),
], ids=["exit 0", "exit 1", "exit 2", "usage error", "help"])
def test_the_callers_setting_comes_back(caller, argv, code, capsys):
    assert run(argv) == code
    capsys.readouterr()
    assert gc.isenabled() is caller


def test_the_callers_setting_comes_back_when_a_command_raises(caller, monkeypatch):
    def broken(args):
        assert not gc.isenabled()
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "cmd_gamma_dist", broken)
    cli.build_parser.cache_clear()  # the parser holds the subcommand it was built with
    try:
        with pytest.raises(RuntimeError, match="a bug"):
            run(["gamma-dist", "--to", "2,1"])
    finally:
        cli.build_parser.cache_clear()
    assert gc.isenabled() is caller
