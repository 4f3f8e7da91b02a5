"""Every argv ends in exit 0, 1 or 2 and raises nothing.

Random argv draw a subcommand (known, unknown or a prefix), then flags from
the command table (repeated, abbreviated, unknown, in the ``--flag value``
and ``--flag=value`` forms) with values from a pool: texts that start with a
dash, ``--``, ``-``, empty, non-ASCII digits, 5,000-digit strings, a path
with a NUL byte (only an in-process caller can pass one) and documents
written beforehand.  The magnitude cap is set to 50, so any size flag over it
is refused before work starts, and the pool holds no larger size.

``run()`` reads a plain argv off the command table and leaves every other
argv to argparse.  The two readers must agree: each argv, plain ones drawn
with each command's flags in random order among them, gives the same exit
code, stdout, stderr and written files whether or not the plain reader
runs, with the cap unset, 50 or unparsable.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiveweb import cli
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
FLAGS = sorted({flag for _, flags in _COMMANDS.values() for flag in flags})
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


# values a plain argv may carry, and values that make it not plain; the sizes
# stay small or over every cap drawn, so no command runs long
PLAIN_VALUES = ["--", "-", "", "-h", "-1,0", "-12,1,2,3,4,5,6", "-5~2", "-3", "-0", "1,1", "0,0",
                "2,0", "0,2", "2,1,0,1,0,1,0", "0-2", "u", "v", "0", "1", "2", "6", "007", "50",
                "51", "1000000000001", "9" * 5000, "-" + "7" * 5000, "\u0663", "a\0b", "o.json",
                *DOCS, "missing.json"]
# values each flag can run with
FITTING = {"--triangulation": ["t.json"], "--hive": ["h.json"], "--web": ["h.json"],
           "--coords": ["2,1,0,1,0,1,0", "-12,1,2,3,4,5,6"], "--to": ["1,1", "-1,0", "v"],
           "--from": ["0,0", "u"], "--a": ["0,0"], "--b": ["2,0"], "--c": ["0,2"],
           "--edge": ["0-2"], "--graph": ["g.json"], "--sweep": ["2"], "--seed": ["0", "-3"],
           "--bound": ["1"], "--window": ["6"], "--out": ["o.json"]}
# HIVEWEB_MAX_THIRDS: unset, 50, unparsable
CAPS = [None, "50", "x5"]


@st.composite
def plain_argvs(draw):
    """A command, then each of its required flags and some of the others, in
    random order, each with a value it can run with or one from the pool."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    flags = _COMMANDS[command][1]
    chosen = [flag for flag, keywords in flags.items()
              if keywords.get("required") or draw(st.booleans())]
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        argv += [flag, draw(st.sampled_from(FITTING[flag] if draw(st.booleans()) else
                                            PLAIN_VALUES))]
    return argv


def outcome(argv, cap, plain):
    """The exit code, stdout, stderr and files that ``run(argv)`` leaves in a
    directory holding DOCS, with or without the plain reader."""
    env = {k: v for k, v in os.environ.items() if k != "HIVEWEB_MAX_THIRDS"}
    if cap is not None:
        env["HIVEWEB_MAX_THIRDS"] = cap
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        for name, doc in DOCS.items():
            Path(root, name).write_text(json.dumps(doc))
        os.chdir(root)
        try:
            with mock.patch.dict(os.environ, env, clear=True), \
                    mock.patch.object(cli, "_plain_args", cli._plain_args if plain else
                                      lambda argv: None), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(here)
        files = {path.name: path.read_bytes() for path in Path(root).iterdir()}
    return code, out.getvalue(), err.getvalue(), files


@settings(deadline=None, max_examples=150)
@given(argv=st.one_of(argvs(), plain_argvs()), cap=st.sampled_from(CAPS))
# the plain reader reads a flag once, after the required ones are found, each
# default, no "--", and the size flags in argv order
@example(argv=["sample", "--triangulation", "t.json", "--bound", "51", "--bound", "1",
               "--seed", "0"], cap="50")
@example(argv=["gamma-dist", "--from", "1,1"], cap=None)
@example(argv=["oracle", "--sweep", "2"], cap=None)
@example(argv=["gamma-dist", "--to", "--"], cap=None)
@example(argv=["oracle", "--sweep", "51", "--bound", "51"], cap="50")
@example(argv=["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "6",
               "--out", "o.json"], cap=None)
def test_the_plain_reader_reads_as_argparse_does(argv, cap):
    assert outcome(argv, cap, True) == outcome(argv, cap, False), argv
