"""Every usage and help text, and the parser each argv is parsed by.

``run()`` builds the parser of the command its argv names: the root parser
with that one subparser, which parses the argv alone unless it leaves
arguments over for the root to report.  Any other argv (``--help``, none,
an unknown command) gets the parser of every command.  Both must print what
one parser of every command printed for every argv.
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


@pytest.mark.parametrize("argv,built", [
    (["gamma-dist", "--to", "1,1"], "gamma-dist"),
    (["oracle", "--coords", "-1,0,0,0,0,0,0"], "oracle"),
    (["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2"], "fermat"),
    (["validate", "--bogus"], "validate"),
    (["--help"], None),
    ([], None),
    (["frobnicate"], None),
    (["-h", "sample"], None),
    (["gamma"], None),  # a prefix names no command
])
def test_run_builds_the_parser_of_the_command_it_runs(argv, built, capsys, monkeypatch):
    calls, build = [], cli.build_parser

    def recorded(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "build_parser", recorded)
    cli.run(argv)
    capsys.readouterr()
    assert calls == [(built,)]


@pytest.mark.parametrize("argv,parses", [
    (["gamma-dist", "--to", "1,1"], ["hiveweb gamma-dist"]),
    (["oracle", "--coords", "-1,0,0,0,0,0,0"], ["hiveweb oracle"]),
    (["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "1"], ["hiveweb fermat"]),
    # what the command leaves over, the root reports under its own usage
    (["validate", "--bogus"], ["hiveweb validate", "hiveweb", "hiveweb validate"]),
    (["--help"], ["hiveweb"]),
], ids=["gamma-dist", "oracle", "fermat", "unrecognized", "root"])
def test_a_valid_argv_is_parsed_once(argv, parses, capsys, monkeypatch):
    """The command an argv names parses the rest of it alone; only what it
    leaves over sends the whole argv through the root parser."""
    progs, parse = [], argparse.ArgumentParser.parse_known_args

    def recorded(self, *args, **kwargs):
        progs.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recorded)
    cli.run(argv)
    capsys.readouterr()
    assert progs == parses


def test_a_command_parser_offers_only_its_command():
    parser = cli.build_parser("gamma-dist")
    (sub,) = (action for action in parser._actions if action.dest == "command")
    assert list(sub.choices) == ["gamma-dist"]
    (full,) = (action for action in cli.build_parser(None)._actions if action.dest == "command")
    assert list(full.choices) == list(cli._COMMANDS)
