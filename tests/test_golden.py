"""Byte-identity of CLI output on a fixed 40-gon.

``golden_cli.json`` holds the sha256 of the stdout (and the exit code) of
each command below, captured from the implementation that built every hive
label out of ``Third``/``ThetaVertex`` objects.  Any rewrite of the hive
internals must reproduce these bytes: the sampler's choices for each seed,
the order and text of violations, the vertex named by ``IncompleteHive``,
and the carrying of unknown vertex keys through ``flip --hive``.  The three
``hive2web invalid`` digests were taken again when failed rhombi came to be
worded as the JSON objects ``validate --hive`` prints.  ``cone incomplete
seed=2`` was taken again when every hive command came to check completeness
before the rhombus scan: it exited 0 with ``{"in_positive_cone":false}``
because the scan met a failed rhombus before the missing value, and now
exits 1 with the ``IncompleteHive`` document that ``validate``, ``potential``
and ``hive2web`` print for that hive.  The twelve ``incomplete`` digests were
taken again when the ``IncompleteHive`` detail came to quote the vertex key
as a JSON string (``no value for vertex "e:0-1:1"``), as every error text
quotes what it names.

Print the digests of the current code with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from hiveweb.cli import run
from hiveweb.surface import build_polygon

GOLDEN = Path(__file__).with_name("golden_cli.json")
M = 40
SEEDS = (0, 1, 2)


def _diagonals(m: int, rng: random.Random) -> list[tuple[int, int]]:
    """A recursive-split triangulation of the m-gon, so the dual tree branches."""
    diags, stack = [], [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        k = rng.randint(lo + 1, hi - 1)
        for a, b in ((lo, k), (k, hi)):
            if b - a >= 2:
                diags.append((a, b))
                stack.append((a, b))
    return diags


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def capture(workdir: Path) -> dict[str, tuple[int, str]]:
    """Exit code and stdout of every golden command, by a readable name."""
    tri = build_polygon(M, _diagonals(M, random.Random(M)))
    t = _write(workdir / "t.json", tri.to_json())
    interior = sorted(e.id for e in tri.edges if e.attach1 is not None)
    outputs = {}
    for seed in SEEDS:
        def record(name, *argv):
            outputs[f"{name} seed={seed}"] = result = _run(list(argv))
            return result

        record("sample K=3", "sample", "--triangulation", t, "--bound", "3", "--seed", str(seed))
        _, sampled = record("sample", "sample", "--triangulation", t,
                            "--bound", "2", "--seed", str(seed))
        hive_doc = json.loads(sampled)
        h = _write(workdir / f"h{seed}.json", hive_doc)
        _, web_out = record("hive2web", "hive2web", "--hive", h)
        record("web2hive", "web2hive", "--web", _write(workdir / f"w{seed}.json",
                                                       json.loads(web_out)))

        carried = dict(hive_doc, values=dict(hive_doc["values"]))
        carried["values"]["e:99-100:1"] = {"thirds": 7}  # names no vertex of tri
        record("flip --hive", "flip", "--triangulation", t,
               "--edge", interior[(7 * seed + 3) % len(interior)],
               "--hive", _write(workdir / f"c{seed}.json", carried))

        rng = random.Random(seed)
        keys = sorted(hive_doc["values"])
        bad = dict(hive_doc, values=dict(hive_doc["values"]))
        for key in rng.sample(keys, 4):
            bad["values"][key] = {"thirds": bad["values"][key]["thirds"] + rng.choice((-4, -1, 1, 2))}
        b = _write(workdir / f"b{seed}.json", bad)
        for cmd in ("validate", "hive2web", "potential", "cone"):
            record(f"{cmd} invalid", cmd, "--hive", b)

        incomplete = dict(bad, values=dict(bad["values"]))
        for key in rng.sample(keys, 3):
            del incomplete["values"][key]
        i = _write(workdir / f"i{seed}.json", incomplete)
        for cmd in ("validate", "hive2web", "potential", "cone"):
            record(f"{cmd} incomplete", cmd, "--hive", i)
    return outputs


def digests(outputs) -> dict[str, list]:
    return {name: [code, hashlib.sha256(out.encode()).hexdigest()]
            for name, (code, out) in outputs.items()}


def test_cli_output_is_byte_identical(tmp_path):
    assert digests(capture(tmp_path)) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(capture(Path(tmp)))
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(found[k])}"
                              for k in sorted(found)) + "\n}")
