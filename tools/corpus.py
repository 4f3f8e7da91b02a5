"""The CLI differential corpus: a fixed list of command lines and their outputs.

Usage (from the repository root, Python standard library only):

    python3 tools/corpus.py           compare every case with tools/corpus.json
    python3 tools/corpus.py --write   run every case and rewrite tools/corpus.json

The cases are generated here from fixed seeds: triangulated polygons with
3 to 40 vertices under integer, string, mixed and non-ASCII labels, the
once-punctured torus and a cycle of three triangles, each through every
command that reads them; complexes with structural faults and repeated ids;
single-node mutations of one valid document of each kind; ``oracle``,
``fermat``, ``gamma-dist`` and ``dist`` inputs; and command lines of every
class the parser meets.

Each case runs through ``hiveweb.cli.run`` in a new temporary working
directory that holds its documents, named by relative paths, at width 80 and
with ``HIVEWEB_MAX_THIRDS`` unset unless the case sets it.  A case may first
run set-up commands (``sample --out h.json``) and then edit what they wrote.
``tools/corpus.json`` records each case's exit code and the SHA-256 of its
stdout, of its stderr and of the file its ``--out`` names, each null when
there is nothing.  Without ``--write`` the tool prints one JSON line for each
case whose record differs or is missing, and for each recorded id that no
case has, and exits 1 if there was any.  ``hiveweb`` is imported from
``PYTHONPATH`` when it is there, else from ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("corpus.json")
DROP, RENAME, COPY = "drop", "rename", "copy"  # edit operations besides "set"

# -- documents -----------------------------------------------------------------


def _split_faces(m: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """The faces (lo, k, hi) of a recursive-split triangulation of the m-gon."""
    faces, stack = [], [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo >= 2:
            k = rng.randint(lo + 1, hi - 1)
            faces.append((lo, k, hi))
            stack += [(lo, k), (k, hi)]
    return faces


LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"p{i}",
    "mixed": lambda i: i if i % 2 else str(i),
    "non-ascii": lambda i: f"\u03bd{i}",
}


def polygon(m: int, labels: str = "int") -> dict:
    """The document of a triangulated m-gon, vertex i labelled by ``LABELS[labels]``:
    sides counterclockwise, boundary edges i -> i+1, diagonals lo -> hi."""
    rng = random.Random(m)
    label = LABELS[labels]
    faces = _split_faces(m, rng)
    attach: dict[tuple[int, int], list] = {}  # by (tail, head): [first, second]
    for lo, k, hi in faces:
        tid = "-".join(str(label(v)) for v in (lo, k, hi))
        for s, (u, v) in enumerate(((lo, k), (k, hi), (hi, lo))):
            pair = (m - 1, 0) if {u, v} == {0, m - 1} else (min(u, v), max(u, v))
            attach.setdefault(pair, [None, None])[(u, v) != pair] = [tid, s]
    edges = [{"id": f"{label(min(a, b))}-{label(max(a, b))}", "tail": label(a),
              "head": label(b), "attach": [first, second or "boundary"]}
             for (a, b), (first, second) in sorted(attach.items())]
    triangles = ["-".join(str(label(v)) for v in face) for face in sorted(faces)]
    if labels == "mixed":  # documents need not list anything in order
        rng.shuffle(edges)
        rng.shuffle(triangles)
    return {"edges": edges, "triangles": triangles, "signature": {"g": 0, "c": 1, "m": m}}


def _interior(tri: dict) -> list[str]:
    return sorted(e["id"] for e in tri["edges"] if e["attach"][1] != "boundary")


TORUS = {"triangles": ["A", "B"], "edges": [
    {"id": "a", "tail": "v", "head": "v", "attach": [["A", 0], ["B", 1]]},
    {"id": "b", "tail": "v", "head": "v", "attach": [["A", 1], ["B", 2]]},
    {"id": "c", "tail": "v", "head": "v", "attach": [["B", 0], ["A", 2]]},
]}
# three triangles glued in a cycle, each with one boundary side
DUAL_CYCLE = {"triangles": ["A", "B", "C"], "edges": [
    {"id": f"e{a}{b}", "tail": "v", "head": "v", "attach": [[a, s], [b, t]]}
    for a, s, b, t in (("A", 0, "B", 0), ("B", 1, "C", 1), ("C", 0, "A", 1))] + [
    {"id": f"b{a}", "tail": "v", "head": "v", "attach": [[a, 2], "boundary"]} for a in "ABC"]}
SQUARE = polygon(4)
PENTAGON = polygon(5)
FLIP4, FLIP5 = _interior(SQUARE)[0], _interior(PENTAGON)[0]
GRAPH = {"vertices": ["u", "v", "w", 1], "arcs": [["u", "v"], ["v", "w"], ["w", "u"]]}
TRIANGLE_HIVE = {f"a{i}": {"thirds": n} for i, n in enumerate((12, 10, 9, 19, 14, 13, 11), 1)}


def _edited(doc, path, op="set", value=None):
    """A copy of ``doc`` with the node at ``path`` set to ``value``, dropped,
    moved to the key ``value`` in its object's place (``RENAME``) or also
    written there, the copy last (``COPY``)."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if op == DROP:
        del node[path[-1]]
    elif op == RENAME:
        items = [(value if k == path[-1] else k, v) for k, v in node.items()]
        node.clear()
        node.update(items)
    elif op == COPY:
        node[value] = node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _nodes(doc, path=()):
    """The path of every node below the root of ``doc``, parents first."""
    items = (doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list)
             else ())
    for key, value in items:
        yield (*path, key)
        yield from _nodes(value, (*path, key))


# -- cases ---------------------------------------------------------------------
# A case is (id, argv, files, setup, edits, env): ``files`` maps a name in the
# working directory to a document (written as JSON) or to bytes (written as
# they are); each ``setup`` argv runs first, and what it prints is dropped;
# each edit is (file, path, op, value), applied to the JSON file after the
# set-up, and op "wrap" puts the whole document in a list.


def case(cid, argv, files=None, setup=(), edits=(), env=None):
    return {"id": cid, "argv": list(argv), "files": files or {}, "setup": [list(a) for a in setup],
            "edits": list(edits), "env": env or {}}


SAMPLED = ["sample", "--triangulation", "t.json", "--bound", "{K}", "--seed", "{seed}",
           "--out", "h.json"]
WEB_OUT = ["hive2web", "--hive", "h.json", "--out", "w.json"]


def _surface_cases(name: str, tri: dict, K: int, seed: int, flip_edge: str, variant: int):
    """Every command that reads ``tri``, or a hive or web on it sampled with
    (``K``, ``seed``); ``variant`` picks how a hive names its triangulation
    and which results go to ``--out``."""
    files = {"t.json": tri}
    sampled = [[a.format(K=K, seed=seed) for a in SAMPLED]]
    webbed = [*sampled, WEB_OUT]
    ref = [("h.json", ("triangulation",), "set", "t.json")] if variant % 3 == 1 else []
    flag = ["--triangulation", "t.json"] if variant % 3 == 2 else []
    out = ["--out", "o.json"] if variant % 2 else []
    yield case(f"{name}: validate --triangulation", ["validate", "--triangulation", "t.json"],
               files)
    yield case(f"{name}: sample K={K} seed={seed}", [*sampled[0][:-2], *out], files)
    yield case(f"{name}: sample K={K + 1} seed={seed + 1}",
               [a.format(K=K + 1, seed=seed + 1) for a in SAMPLED[:-2]], files)
    for command in ("validate", "potential", "cone", "hive2web"):
        yield case(f"{name}: {command} --hive", [command, "--hive", "h.json", *flag, *out],
                   files, sampled, ref)
    yield case(f"{name}: flip {flip_edge}",
               ["flip", "--triangulation", "t.json", "--edge", flip_edge, *out], files)
    yield case(f"{name}: flip {flip_edge} --hive",
               ["flip", "--triangulation", "t.json", "--edge", flip_edge, "--hive", "h.json"],
               files, sampled, ref)
    yield case(f"{name}: web2hive --web", ["web2hive", "--web", "w.json", *flag, *out],
               files, webbed)
    yield case(f"{name}: validate --web", ["validate", "--web", "w.json", *flag], files, webbed)


def polygon_cases():
    for m in range(3, 41):
        for n, labels in enumerate(LABELS):
            tri = polygon(m, labels)
            rng = random.Random(f"{m} {labels}")
            interior = _interior(tri)
            edge = rng.choice(interior) if interior else tri["edges"][0]["id"]
            yield from _surface_cases(f"polygon m={m} {labels}", tri, (m + n) % 4,
                                      rng.randrange(1000), edge, m + n)
    for K in range(4):
        yield from _surface_cases(f"torus K={K}", TORUS, K, K, "abc"[K % 3], K)
        yield from _surface_cases(f"dual cycle K={K}", DUAL_CYCLE, K, K,
                                  ["eAB", "eBC", "eCA", "bA"][K], K)


def _square_with(**changes):
    return {**SQUARE, **changes}


SQUARE_EDGES = SQUARE["edges"]
FAULTS = {
    "edge listed twice": _square_with(edges=[*SQUARE_EDGES, SQUARE_EDGES[0]]),
    "triangle listed twice": _square_with(triangles=[*SQUARE["triangles"], SQUARE["triangles"][0]]),
    "edge ids 1 and \"1\"": _square_with(edges=[
        {**e, "id": 1 if k == 0 else "1" if k == 1 else e["id"]}
        for k, e in enumerate(SQUARE_EDGES)]),
    "edge listed twice under another tail": _square_with(
        edges=[*SQUARE_EDGES, {**SQUARE_EDGES[0], "tail": "x"}]),
    "both listed twice": _square_with(edges=[*SQUARE_EDGES, SQUARE_EDGES[1]],
                                      triangles=[*SQUARE["triangles"], SQUARE["triangles"][1]]),
    "unlisted triangle": _square_with(triangles=SQUARE["triangles"][1:]),
    "side 3": _edited(SQUARE, ("edges", 0, "attach", 0, 1), "set", 3),
    "side -1": _edited(SQUARE, ("edges", 0, "attach", 0, 1), "set", -1),
    "side attached twice": _edited(SQUARE, ("edges", 1, "attach", 0), "set",
                                   SQUARE_EDGES[0]["attach"][0]),
    "dangling side": _square_with(edges=SQUARE_EDGES[1:]),
    "corner mismatch": _edited(SQUARE, ("edges", 0, "head"), "set", 7),
    "string corner mismatch": _edited(SQUARE, ("edges", 0, "tail"), "set", "x"),
    "count mismatch": _square_with(signature={"g": 1, "c": 1, "m": 4}),
    "no triangles": {"edges": [], "triangles": []},
    "self-glued": {"triangles": ["A"], "edges": [
        {"id": "a", "tail": "v", "head": "v", "attach": [["A", 0], ["A", 1]]},
        {"id": "b", "tail": "v", "head": "v", "attach": [["A", 2]]}]},
}


def fault_cases():
    zeros = {"values": {}, "triangulation": "t.json"}
    for name, tri in FAULTS.items():
        files = {"t.json": tri, "z.json": zeros,
                 "w.json": {"coords": {t: dict.fromkeys("xyztuvw", 0) for t in SQUARE["triangles"]},
                            "triangulation": "t.json"}}
        for argv in (["validate", "--triangulation", "t.json"],
                     ["sample", "--triangulation", "t.json", "--bound", "1", "--seed", "0"],
                     ["flip", "--triangulation", "t.json", "--edge", FLIP4],
                     ["validate", "--hive", "z.json"],
                     ["validate", "--web", "w.json"],
                     ["web2hive", "--web", "w.json"]):
            yield case(f"fault {name}: {' '.join(argv[:2])}", argv, files)


# what reads each kind of document, with its name doc.json
READERS = {
    "triangulation": (["validate", "--triangulation", "doc.json"],
                      ["sample", "--triangulation", "doc.json", "--bound", "1", "--seed", "0"],
                      ["flip", "--triangulation", "doc.json", "--edge", FLIP5]),
    "hive": (["validate", "--hive", "doc.json"], ["hive2web", "--hive", "doc.json"],
             ["potential", "--hive", "doc.json"], ["cone", "--hive", "doc.json"],
             ["flip", "--triangulation", "t.json", "--edge", FLIP5, "--hive", "doc.json"]),
    "web": (["validate", "--web", "doc.json"], ["web2hive", "--web", "doc.json"]),
    "triangle-hive": (["hive2web", "--hive", "doc.json"],),
    "graph": (["dist", "--graph", "doc.json", "--from", "u", "--to", "w"],),
}
# values put at each node: every JSON type, an int over the default cap,
# and what tests/test_malformed.py puts at its nodes
POOL = [None, True, 14.5, "14", "x", [], ["x"], ["x", 0, 7], {}, {"thirds": 0}, -1, 10**13]


def mutation_cases():
    """Each node of a valid document of each kind set to each value of
    ``POOL``, dropped, or its key renamed or written twice; the reading
    command rotates.  A hive or web document is the one its set-up writes."""
    hived = [["sample", "--triangulation", "t.json", "--bound", "2", "--seed", "1",
              "--out", "doc.json"]]
    bases = {
        "triangulation": (PENTAGON, [], PENTAGON),
        "hive": (None, hived, {"values": {k: {"thirds": 0} for k in _keys(PENTAGON)},
                               "triangulation": PENTAGON}),
        "web": (None, [*hived, ["hive2web", "--hive", "doc.json", "--out", "doc.json"]],
                {"coords": {t: dict.fromkeys("xyztuvw", 0) for t in PENTAGON["triangles"]},
                 "triangulation": PENTAGON}),
        "triangle-hive": (TRIANGLE_HIVE, [], TRIANGLE_HIVE),
        "graph": (GRAPH, [], GRAPH),
    }
    turn = 0
    for kind, (doc, setup, shape) in bases.items():
        files = {"t.json": PENTAGON, **({"doc.json": doc} if doc is not None else {})}
        for path in _nodes(shape):
            if kind in ("hive", "web") and path[0] == "triangulation" and len(path) > 2:
                continue  # the embedded triangulation's nodes are the triangulation's
            ops = [("set", value) for value in POOL]
            if isinstance(path[-1], str):
                ops += [(DROP, None), (RENAME, "x"), (RENAME, path[-1] + "0"),
                        (COPY, path[-1] + "0")]
            for op, value in ops:
                argv = READERS[kind][turn % len(READERS[kind])]
                turn += 1
                shown = json.dumps(value, separators=(",", ":")) if op == "set" else op
                if op in (RENAME, COPY):
                    shown += " " + json.dumps(value)
                yield case(f"mutate {kind} {'/'.join(map(str, path))} {shown}: {argv[0]}", argv,
                           files, setup, [("doc.json", path, op, value)])
        for argv in READERS[kind]:
            yield case(f"mutate {kind} a list: {argv[0]}", argv, files, setup,
                       [("doc.json", (), "wrap", None)])


def _keys(tri):
    return [f"c:{t}" for t in tri["triangles"]] + [
        f"e:{e['id']}:{s}" for e in tri["edges"] for s in (0, 1)]


def metric_cases():
    rng = random.Random(0)
    for n in range(40):
        x = rng.randint(-60, 60) if n % 4 else rng.choice((-60, -1, 0, 1, 60))
        coords = ",".join(map(str, (x, *(rng.randint(0, 5) for _ in range(6)))))
        yield case(f"oracle --coords {coords}", ["oracle", "--coords", coords])
    for n in range(8):
        yield case(f"oracle --sweep {5 * n} --seed {n} --bound {n % 5}",
                   ["oracle", "--sweep", str(5 * n), "--seed", str(n), "--bound", str(n % 5)])
    yield case("oracle --sweep 3", ["oracle", "--sweep", "3"])
    for n in range(40):
        radius = rng.randint(0, 24)
        if n % 4:  # a lower-left, b lower-right, c upper: mostly a region to search
            x, y, right, up = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(0, 12),
                               rng.randint(0, 12))
            corners = [(x, y), (x + right, y + rng.randint(-1, 1)),
                       (x + rng.randint(-1, 1), y + up)]
        else:  # anywhere, some outside the window
            corners = [(rng.randint(-radius - 3, radius + 3), rng.randint(-radius - 3, radius + 3))
                       for _ in "abc"]
        points = [f"{a},{b}" for a, b in corners]
        window = ["--window", str(radius)] if n % 6 else []
        yield case(f"fermat {' '.join(points)} window {radius if window else None}",
                   ["fermat", "--a", points[0], "--b", points[1], "--c", points[2], *window])
    for n in range(12):
        src = f"{rng.randint(-20, 20)},{rng.randint(-20, 20)}"
        to = f"{rng.randint(-20, 20)},{rng.randint(-20, 20)}"
        yield case(f"gamma-dist --from {src} --to {to}", ["gamma-dist", "--from", src, "--to", to])
    graphs = {
        "named": {"vertices": ["u", "v", "w", "x"], "arcs": [["u", "v"], ["v", "w"], ["w", "u"]]},
        "numbered": {"vertices": [1, 2, -3, "a"], "arcs": [[1, 2], [-3, 1], [2, "a"]]},
        "mixed": {"vertices": ["1", 1, "a"], "arcs": [["1", "a"]]},
        "empty": {"vertices": [], "arcs": []},
    }
    for name, graph in graphs.items():  # every pair of names, two that name no vertex too
        names = [*dict.fromkeys(str(v) for v in graph["vertices"]), "01", "-5~2"]
        for src in names:
            for to in names:
                yield case(f"dist {name} {src!r} -> {to!r}",
                           ["dist", "--graph", "g.json", "--from", src, "--to", to],
                           {"g.json": graph})
    # windows of one point and larger than the ones above, a on the left edge,
    # b on the bottom edge and c on the top edge: some regions are empty
    for radius in (0, *range(25, 41)):
        corners = [(-radius, rng.randint(-radius, radius)), (rng.randint(-radius, radius), -radius),
                   (rng.randint(-radius, radius), radius)]
        points = [f"{a},{b}" for a, b in corners]
        yield case(f"fermat {' '.join(points)} edges of window {radius}",
                   ["fermat", "--a", points[0], "--b", points[1], "--c", points[2],
                    "--window", str(radius)])


# each command's flags, --out last
FLAGS = {
    "validate": ["--triangulation", "--hive", "--web", "--out"],
    "web2hive": ["--coords", "--web", "--triangulation", "--out"],
    "hive2web": ["--hive", "--triangulation", "--out"],
    "flip": ["--triangulation", "--edge", "--hive", "--out"],
    "potential": ["--hive", "--triangulation", "--out"],
    "cone": ["--hive", "--triangulation", "--out"],
    "oracle": ["--coords", "--sweep", "--seed", "--bound", "--out"],
    "gamma-dist": ["--to", "--from", "--out"],
    "fermat": ["--a", "--b", "--c", "--window", "--out"],
    "sample": ["--triangulation", "--bound", "--seed", "--out"],
    "dist": ["--graph", "--from", "--to", "--out"],
}
# command-line values of every class the parser has had to tell apart
VALUES = ["--", "-", "", "-1,0", "1,1", "0,0", "2,0", "0,2", "0,0,0,0,0,0,0", "2,1,0,1,0,1,0",
          "0", "1", "2", "-3", "51", "0-2", "-5~2", "u", "v", "\uff11", "\u0663", "1_0", "+1",
          " 1", "-0,-00", "9" * 5000, "-" + "0" * 5000 + "1", "a\0b", "t.json", "h.json",
          "twice.json", "g.json", "bad.json", "missing.json", "-h.json", "sub/"]


def argv_cases():
    files = {"t.json": SQUARE, "-h.json": {"values": {}, "triangulation": "t.json"},
             "twice.json": FAULTS["edge listed twice"],
             "h.json": {"values": {k: {"thirds": 0} for k in _keys(SQUARE)},
                        "triangulation": SQUARE},
             "g.json": {"vertices": ["u", "v"], "arcs": [["u", "v"]]}, "bad.json": [1, 2],
             "raw.json": b"{\"values\": ", "deep.json": b"[" * 5000 + b"]" * 5000,
             "latin.json": b'{"values": "\xff"}'}
    for command in FLAGS:
        for argv in ([command], [command, "--help"], [command, "--bogus"], [command, "-h", "x"]):
            yield case(f"argv {' '.join(argv)}", argv)
    for argv in ([], ["--help"], ["frobnicate"], ["val"], ["gamma"], ["-h", "sample"], [""]):
        yield case(f"argv {argv!r}", argv)
    rng = random.Random(21)
    commands = [*FLAGS, "frobnicate", "val", "gamma"]
    flags = sorted({flag for found in FLAGS.values() for flag in found})
    for n in range(400):
        command = rng.choice(commands)
        argv = [command]
        pool = FLAGS.get(command, flags)
        for _ in range(rng.randint(0, 6)):
            flag = (rng.choice(pool) if rng.random() < 0.85
                    else rng.choice([*flags, "-h", "--bogus"]))
            if rng.random() < 0.15:
                flag = flag[:rng.randint(min(3, len(flag)), len(flag))]
            value, form = rng.choice(VALUES), rng.choice(["apart", "apart", "=", "bare"])
            argv += {"apart": [flag, value], "=": [f"{flag}={value}"], "bare": [flag]}[form]
        env = {"HIVEWEB_MAX_THIRDS": "50"} if n % 3 == 0 else {}
        yield case(f"argv random {n}", argv, files, env=env)
    for raw in ("100", "x", "-1", "", " 7", "1_000"):
        for argv in (["web2hive", "--coords", "101,0,0,0,0,0,0"],
                     ["validate", "--hive", "h.json"],
                     ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "60"]):
            yield case(f"env HIVEWEB_MAX_THIRDS={raw!r}: {argv[0]}", argv, files,
                       env={"HIVEWEB_MAX_THIRDS": raw})
    for name in ("raw.json", "deep.json", "latin.json", "missing.json", "sub/", "."):
        yield case(f"unreadable {name}", ["validate", "--hive", name], files)
    yield case("reference to a missing triangulation", ["cone", "--hive", "-h.json"],
               {"-h.json": {"values": {}, "triangulation": "nowhere.json"}})


def cases():
    """Every case, in a fixed order with unique ids."""
    yield from polygon_cases()
    yield from fault_cases()
    yield from mutation_cases()
    yield from metric_cases()
    yield from argv_cases()


# -- running -------------------------------------------------------------------


def _digest(data: bytes | None) -> str | None:
    return hashlib.sha256(data).hexdigest() if data else None


def _out_path(argv):
    for i, arg in enumerate(argv):
        if arg == "--out" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--out="):
            return arg[len("--out="):]
    return None


def _apply(edit):
    name, path, op, value = edit
    if not Path(name).is_file():  # its set-up failed, which the command then reports
        return
    doc = json.loads(Path(name).read_text(encoding="utf-8"))
    Path(name).write_text(json.dumps([doc] if op == "wrap" else _edited(doc, path, op, value)),
                          encoding="utf-8")


def run_case(c) -> list:
    """[exit code, stdout, stderr, --out file digests] of case ``c``."""
    from hiveweb.cli import run

    here, saved = os.getcwd(), dict(os.environ)
    with tempfile.TemporaryDirectory(prefix="corpus-") as tmp:
        os.chdir(tmp)
        try:
            os.environ.pop("HIVEWEB_MAX_THIRDS", None)
            os.environ.update(COLUMNS="80", **c["env"])
            for name, doc in c["files"].items():
                Path(name).write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                for argv in c["setup"]:
                    run(argv)
                for edit in c["edits"]:
                    _apply(edit)
                out.seek(0), out.truncate(), err.seek(0), err.truncate()
                code = run(c["argv"])
            target = _out_path(c["argv"])
            written = None
            if target and "\0" not in target and os.path.isfile(target):
                written = Path(target).read_bytes()
            return [code, _digest(out.getvalue().encode()), _digest(err.getvalue().encode()),
                    _digest(written)]
        finally:
            os.chdir(here)
            os.environ.clear()
            os.environ.update(saved)


def read_record() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def write_record(results: dict) -> None:
    lines = [f" {json.dumps(cid)}: {json.dumps(entry, separators=(',', ':'))}"
             for cid, entry in results.items()]
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main(argv) -> int:
    if "PYTHONPATH" not in os.environ:
        sys.path.insert(0, str(ROOT / "src"))
    all_cases = list(cases())
    results = {c["id"]: run_case(c) for c in all_cases}
    if len(results) != len(all_cases):
        raise SystemExit("corpus: case ids repeat")
    if argv[1:] == ["--write"]:
        write_record(results)
        print(f"corpus: wrote {len(results)} cases to {RECORD.relative_to(ROOT)}")
        return 0
    recorded, differing = read_record(), 0
    for cid, now in results.items():
        if recorded.get(cid) != now:
            differing += 1
            print(json.dumps({"id": cid, "recorded": recorded.get(cid), "now": now},
                             separators=(",", ":")))
    for cid in recorded.keys() - results.keys():
        differing += 1
        print(json.dumps({"id": cid, "recorded": recorded[cid], "now": None},
                         separators=(",", ":")))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
