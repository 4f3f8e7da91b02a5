"""Every argv ends in exit 0, 1 or 2 and raises nothing.

Random argv draw a subcommand (known, unknown or a prefix), then flags from
the command table (repeated, abbreviated, unknown, in the ``--flag value``
and ``--flag=value`` forms) with values from a pool: texts that start with a
dash, ``--``, ``-``, empty, non-ASCII digits, 5,000-digit strings, a path
with a NUL byte (only an in-process caller can pass one) and documents
written beforehand.  The magnitude cap is set to 50, so any size flag over it
is refused before work starts, and the pool holds no larger size.
"""

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiveweb.cli import _COMMANDS, run
from hiveweb.hive import hive_to_json
from hiveweb.surface import build_polygon

SQUARE = build_polygon(4, [(0, 2)])
SQUARE_DOC = SQUARE.to_json()
DOCS = {
    "t.json": SQUARE_DOC,
    "twice.json": {**SQUARE_DOC, "edges": [*SQUARE_DOC["edges"], SQUARE_DOC["edges"][0]]},
    "h.json": hive_to_json(SQUARE, [0] * len(SQUARE.keys)),
    "g.json": {"vertices": ["u", "v"], "arcs": [["u", "v"]]},
    "bad.json": [1, 2],
}
FLAGS = sorted({flag for _, flags in _COMMANDS.values() for flag in flags} | {"--out"})
COMMANDS = [*_COMMANDS, "frobnicate", "val", "gamma", "", "-h", "--help"]
VALUES = ["--", "-", "", "-1,0", "1,1", "0,0", "2,0", "0,2", "0,0,0,0,0,0,0", "2,1,0,1,0,1,0",
          "0", "1", "2", "-3", "51", "0-2", "-5~2", "u", "v", "\uff11", "\u0663", "9" * 5000,
          "-" + "0" * 5000 + "1", "a\0b", *DOCS, "missing.json"]


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(COMMANDS))]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from([*FLAGS, "-h", "--bogus"]))
        if draw(st.booleans()):  # an abbreviation, or an unknown prefix
            flag = flag[:draw(st.integers(min(3, len(flag)), len(flag)))]
        value, form = draw(st.sampled_from(VALUES)), draw(st.sampled_from(["apart", "=", "bare"]))
        argv += {"apart": [flag, value], "=": [f"{flag}={value}"], "bare": [flag]}[form]
    return argv


@settings(deadline=None, max_examples=150)
@given(argvs())
@example(["gamma-dist", "--to", "--"])
@example(["sample", "--triangulation", "t.json", "--bound", "1", "--seed=--"])
@example(["gamma-dist", "--to", "1,1", "--out", "a\0b"])
def test_every_argv_ends_in_exit_0_1_or_2(tmp_path_factory, argv):
    root = tmp_path_factory.getbasetemp() / "argv"
    root.mkdir(exist_ok=True)
    for name, doc in DOCS.items():
        (root / name).write_text(json.dumps(doc))
    here, out = os.getcwd(), io.StringIO()
    os.chdir(root)  # relative paths, --out ones too, land here
    try:
        with mock.patch.dict(os.environ, {"HIVEWEB_MAX_THIRDS": "50"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = run(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1, 2), argv
