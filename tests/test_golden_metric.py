"""Byte-identity of the metric and oracle commands' CLI output.

``golden_metric.json`` holds the sha256 of the stdout (and the exit code) of
each command below, captured from the implementation whose Dijkstra was a
``heapq`` search over dicts of ``Third`` and whose oracle ran six searches.
Any rewrite of the metric or of the net oracle must reproduce these bytes:
the oracle's hives at benchmark sizes (|x| up to 40, corners up to 6), the
brute-force tripod value and argmin size, and the text of unknown-vertex,
unreachable and empty-region errors.

Print the digests of the current code with
``PYTHONPATH=src python tests/test_golden_metric.py``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from test_golden import _run, digests

GOLDEN = Path(__file__).with_name("golden_metric.json")

ORACLE_COORDS = (
    "0,0,0,0,0,0,0", "1,0,0,0,0,0,0", "-1,0,0,0,0,0,0", "3,2,1,1,1,1,1",
    "-17,6,0,3,6,1,2", "17,0,6,2,5,4,0", "40,6,6,6,6,6,6", "-40,0,0,0,0,0,0",
    "-40,5,1,0,2,6,3", "29,1,4,6,0,2,5",
)

# (a, b, c): nonempty minimizer regions, one with a corner outside radius 6,
# and two empty regions
FERMAT_TRIPLES = (
    ("0,0", "2,0", "0,2"),
    ("-3,-1", "4,-1", "-3,5"),
    ("-5,-5", "5,-5", "-5,5"),
    ("-10,0", "8,0", "-10,9"),
    ("0,0", "-1,0", "0,-1"),
    ("2,3", "1,-4", "0,0"),
)

GRAPH = {
    "vertices": ["a", "b", "c", "d", "e", "f", "g", "h"],
    "arcs": [["a", "b"], ["b", "c"], ["c", "a"], ["a", "b"], ["b", "a"], ["c", "c"],
             ["c", "d"], ["d", "e"], ["e", "f"], ["f", "d"], ["e", "a"], ["g", "h"]],
}
DIST_PAIRS = (
    ("a", "a"), ("a", "c"), ("c", "a"), ("a", "f"), ("f", "a"), ("d", "b"),
    ("a", "g"), ("g", "h"), ("h", "g"), ("a", "z"), ("z", "a"),
)

GAMMA_POINTS = (("-1,0", None), ("2,1", None), ("0,-3", None), ("3,2", "1,1"),
                ("-7,4", "5,-6"), ("40,-40", "-40,40"))


def capture(workdir: Path) -> dict[str, tuple[int, str]]:
    """Exit code and stdout of every golden command, by a readable name."""
    outputs = {}
    for coords in ORACLE_COORDS:
        outputs[f"oracle --coords {coords}"] = _run(["oracle", "--coords", coords])
    for seed in (0, 1, 2):
        outputs[f"oracle --sweep 50 --bound 6 seed={seed}"] = _run(
            ["oracle", "--sweep", "50", "--bound", "6", "--seed", str(seed)])
    for a, b, c in FERMAT_TRIPLES:
        for window in ("6", "16"):
            outputs[f"fermat {a} {b} {c} --window {window}"] = _run(
                ["fermat", "--a", a, "--b", b, "--c", c, "--window", window])
    graph = workdir / "g.json"
    graph.write_text(json.dumps(GRAPH))
    for s, t in DIST_PAIRS:
        outputs[f"dist {s} {t}"] = _run(["dist", "--graph", str(graph), "--from", s, "--to", t])
    for to, src in GAMMA_POINTS:
        argv = ["gamma-dist", "--to", to] + (["--from", src] if src else [])
        outputs[f"gamma-dist {to} from {src}"] = _run(argv)
    return outputs


def test_metric_cli_output_is_byte_identical(tmp_path):
    assert digests(capture(tmp_path)) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(capture(Path(tmp)))
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(found[k])}"
                              for k in sorted(found)) + "\n}")
