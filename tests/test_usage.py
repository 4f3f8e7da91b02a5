"""Every usage and help text, and the parser each argv is parsed by.

``run()`` reads a plain argv (a command, then ``--flag value`` pairs of its
flags written out in full, each once, every required one present) off the
command table and builds no parser.  Any other argv that names a command
gets the parser of that command: the root parser with that one subparser,
which parses the argv alone unless it leaves arguments over for the root to
report.  Any other argv (``--help``, none, an unknown command) gets the
parser of every command.  Each must print what one parser of every command
printed for every argv.
``tests/golden_usage.json`` holds that: the exit code, stdout and stderr of
each case, captured at width 80 with every subcommand built for every argv.
It covers the root's own reports, such as ``validate --bogus``'s
unrecognized argument, whose usage names every command.
"""

import argparse
import json
from pathlib import Path

import pytest

from hiveweb import cli

GOLDEN = json.loads(Path(__file__).with_name("golden_usage.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN.values(), ids=GOLDEN)
def test_usage_and_help_texts(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps a usage line to
    code = cli.run(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_every_command_has_its_cases():
    for command in cli._COMMANDS:
        assert {command, f"{command} --help", f"{command} --bogus"} <= GOLDEN.keys()


# argvs that the command table reads alone, and their exit codes
PLAIN = {
    "gamma-dist": (["gamma-dist", "--to", "1,1"], 0),
    "oracle": (["oracle", "--coords", "-1,0,0,0,0,0,0"], 0),
    "fermat": (["fermat", "--c", "0,2", "--window", "2", "--a", "0,0", "--b", "2,0"], 0),
    # read, then refused by the command: the file cannot be read
    "sample": (["sample", "--seed", "-5", "--triangulation", "missing.json", "--bound", "1"], 2),
}
# argvs that name a command, yet only its parser reads: a flag and its value
# in one argument, an abbreviation, a flag given twice
FOR_ARGPARSE = [
    ["gamma-dist", "--to=1,1"],
    ["oracle", "--coords", "-1,0,0,0,0,0,0", "--coords", "1,0,0,0,0,0,0"],
    ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--wind", "1"],
]


def recorded(monkeypatch, owner, name):
    """The arguments of every call of ``owner.name`` from now on."""
    calls, function = [], getattr(owner, name)

    def record(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls


@pytest.mark.parametrize("argv,code", PLAIN.values(), ids=PLAIN)
def test_a_plain_argv_builds_and_parses_nothing(argv, code, capsys, monkeypatch):
    builds = recorded(monkeypatch, cli, "build_parser")
    parses = recorded(monkeypatch, argparse.ArgumentParser, "parse_known_args")
    assert (cli.run(argv), builds, parses) == (code, [], [])
    capsys.readouterr()


@pytest.mark.parametrize("argv,built", [
    (FOR_ARGPARSE[0], "gamma-dist"),
    (FOR_ARGPARSE[1], "oracle"),
    (FOR_ARGPARSE[2], "fermat"),
    (["validate", "--bogus"], "validate"),
    (["--help"], None),
    ([], None),
    (["frobnicate"], None),
    (["-h", "sample"], None),
    (["gamma"], None),  # a prefix names no command
])
def test_run_builds_the_parser_of_the_command_it_runs(argv, built, capsys, monkeypatch):
    calls = recorded(monkeypatch, cli, "build_parser")
    cli.run(argv)
    capsys.readouterr()
    assert calls == [(built,)]


@pytest.mark.parametrize("argv,parses", [
    (FOR_ARGPARSE[0], ["hiveweb gamma-dist"]),
    (FOR_ARGPARSE[1], ["hiveweb oracle"]),
    (FOR_ARGPARSE[2], ["hiveweb fermat"]),
    # what the command leaves over, the root reports under its own usage
    (["validate", "--bogus"], ["hiveweb validate", "hiveweb", "hiveweb validate"]),
    (["--help"], ["hiveweb"]),
], ids=["gamma-dist", "oracle", "fermat", "unrecognized", "root"])
def test_a_valid_argv_is_parsed_once(argv, parses, capsys, monkeypatch):
    """The command a non-plain argv names parses the rest of it alone; only
    what it leaves over sends the whole argv through the root parser."""
    calls = recorded(monkeypatch, argparse.ArgumentParser, "parse_known_args")
    cli.run(argv)
    capsys.readouterr()
    assert [parser.prog for parser, *_ in calls] == parses


def test_a_command_parser_offers_only_its_command():
    parser = cli.build_parser("gamma-dist")
    (sub,) = (action for action in parser._actions if action.dest == "command")
    assert list(sub.choices) == ["gamma-dist"]
    (full,) = (action for action in cli.build_parser(None)._actions if action.dest == "command")
    assert list(full.choices) == list(cli._COMMANDS)
