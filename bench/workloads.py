"""The benchmark workloads: set-up, operation streams and output checks.

A workload is built from ``--seed`` alone.  ``setup`` makes the inputs and
pays first-call costs; ``ops`` yields an endless stream of :class:`Op`, each a
timed ``call`` and an untimed ``check`` that raises :class:`CheckFailed` when
the output breaks one of the paper's guarantees.  Every call to ``ops``
starts a fresh stream, so a pass can be repeated; the end-to-end run repeats
its first ``pass_ops`` operations, the traced run its first ``trace_ops``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

import gen
from hiveweb import cli, hive, surface, web


class CheckFailed(Exception):
    pass


class Op(NamedTuple):
    """One operation: ``call()`` is timed, ``check(result)`` is not."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _no_float(text):
    raise CheckFailed(f"non-integer number {text!r} in output")


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def run_cli(argv) -> CliResult:
    """``hiveweb.cli.run`` in-process, capturing what it writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def checked_doc(result) -> dict:
    """The output document of a successful call, which must be canonical JSON
    (sorted keys, no whitespace, integers only) on one line."""
    code, text, err = result
    if code != 0:
        raise CheckFailed(f"exit {code}: {(text or err)[:200]}")
    doc = json.loads(text, parse_float=_no_float, parse_constant=_no_float)
    if text != json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n":
        raise CheckFailed("output is not canonical JSON")
    return doc


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _hive_violations(tri_doc: dict, values_doc: dict) -> list:
    tri = surface.Triangulation.from_json(tri_doc)
    return hive.validate_hive(tri, hive.hive_values_from_json(values_doc))


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _repeatable(key: tuple, check, verified: dict):
    """For a command run again and again on the same input: the first output
    is checked against the guarantees, and every later one must repeat it
    byte for byte (the CLI is deterministic), which is as strict and far
    cheaper than checking it again."""
    def checked(result):
        if key not in verified:
            check(result)
            verified[key] = result.out
        _expect(result.code == 0 and result.out == verified[key],
                f"output of {key[0]} differs from its first, checked output")
    return checked


class CliSurface:
    """A CLI user working on one document: a round-robin of eight
    subcommands through ``run()`` on a random triangulated m-gon."""

    name = "cli-surface"
    labels = ("validate-hive", "validate-triangulation", "hive2web", "web2hive",
              "potential", "cone", "sample", "flip")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.m = 12 if tiny else 200
        self.bound = 2 if tiny else 3
        self.trace_ops = len(self.labels) * (4 if tiny else 16)
        self.pass_ops = len(self.labels) * (2 if tiny else 16)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        diags = gen.random_polygon_diagonals(self.m, rng)
        tri = surface.build_polygon(self.m, diags)
        self.t_path = self.workdir / "t.json"
        self.h_path = self.workdir / "h.json"
        self.w_path = self.workdir / "w.json"
        _write_json(self.t_path, tri.to_json())
        # the first, cold sample fills the sampler's cache; its output is the
        # hive every later operation reads
        sampled = checked_doc(run_cli([
            "sample", "--triangulation", str(self.t_path),
            "--bound", str(self.bound), "--seed", str(self.seed),
        ]))
        _write_json(self.h_path, sampled)
        _write_json(self.w_path, checked_doc(run_cli(["hive2web", "--hive", str(self.h_path)])))
        self.tri = tri
        self.expected_values = sampled["values"]
        self.flips = gen.flip_targets(self.m, diags)
        self.flip_order = sorted(self.flips)
        rng.shuffle(self.flip_order)

    def ops(self):
        t, h, w = str(self.t_path), str(self.h_path), str(self.w_path)
        verified: dict[tuple, str] = {}
        plain = {
            label: (argv, _repeatable(tuple(argv), check, verified))
            for label, argv, check in (
                ("validate-hive", ["validate", "--hive", h], self._check_valid),
                ("validate-triangulation", ["validate", "--triangulation", t],
                 self._check_valid),
                ("hive2web", ["hive2web", "--hive", h], self._check_hive2web),
                ("web2hive", ["web2hive", "--web", w], self._check_web2hive),
                ("potential", ["potential", "--hive", h], self._check_potential),
                ("cone", ["cone", "--hive", h], self._check_cone),
            )
        }
        cycle = 0
        while True:
            for label in self.labels:
                if label == "sample":
                    argv = ["sample", "--triangulation", t, "--bound", str(self.bound),
                            "--seed", str(cycle)]
                    check = self._check_sample
                elif label == "flip":
                    edge = self.flip_order[cycle % len(self.flip_order)]
                    argv = ["flip", "--triangulation", t, "--edge", edge, "--hive", h]
                    check = self._flip_checker(edge)
                else:
                    argv, check = plain[label]
                yield Op(label, lambda argv=argv: run_cli(argv), check)
            cycle += 1

    @staticmethod
    def _check_valid(result):
        _expect(checked_doc(result) == {"valid": True, "violations": []}, "not valid")

    def _check_hive2web(self, result):
        # web -> hive -> web is the identity: the web glues back to the input
        doc = checked_doc(result)
        glued = web.surface_web_to_hive(self.tri, web.surface_web_from_json(doc))
        _expect({v.key(): x.to_json() for v, x in glued.items()} == self.expected_values,
                "hive2web output does not glue back to the input hive")

    def _check_web2hive(self, result):
        _expect(checked_doc(result)["values"] == self.expected_values,
                "web2hive does not reproduce the hive")

    @staticmethod
    def _check_potential(result):
        # a valid hive has every rhombus a non-negative integer
        thirds = checked_doc(result)["thirds"]
        _expect(thirds <= 0 and thirds % 3 == 0, f"potential {thirds} of a valid hive")

    @staticmethod
    def _check_cone(result):
        _expect(checked_doc(result) == {"in_positive_cone": True}, "valid hive outside the cone")

    @staticmethod
    def _check_sample(result):
        doc = checked_doc(result)
        _expect(_hive_violations(doc["triangulation"], doc) == [], "sampled hive is invalid")

    def _flip_checker(self, edge):
        def check(result):
            doc = checked_doc(result)
            _expect(doc["old_edge"] == edge and doc["new_edge"] == self.flips[edge],
                    f"flip of {edge} gave {doc['new_edge']}")
            _expect(_hive_violations(doc["triangulation"], doc["hive"]) == [],
                    "transported hive is invalid")
        return check


class OracleNet:
    """The distance oracle on dual nets, ``oracle --coords``, interleaved
    with brute-force Fermat minima on lattice windows, ``fermat --window``."""

    name = "oracle-net"
    labels = ("oracle", "fermat")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.max_x = 4 if tiny else 40
        self.max_corner = 2 if tiny else 6
        self.radii = range(2, 5) if tiny else range(6, 17)
        self.trace_ops = 4 * (2 * self.max_x + 1)
        # one oracle per mesh size x, each paired with a fermat window
        self.pass_ops = 2 * (2 * self.max_x + 1)

    def setup(self) -> None:
        # first calls at the largest mesh and window, so that the set-up cost
        # does not depend on which sizes the seed happens to draw first
        rng = random.Random(self.seed)
        largest = (self.max_x, *(rng.randint(0, self.max_corner) for _ in range(6)))
        triple = next(gen.fermat_triples(rng, range(self.radii[-1], self.radii[-1] + 1)))
        for op in (self._oracle(largest), self._fermat(triple)):
            op.check(op.call())

    def ops(self):
        coords = gen.oracle_coords(random.Random(self.seed), self.max_x, self.max_corner)
        triples = gen.fermat_triples(random.Random(self.seed + 1), self.radii)
        while True:
            yield self._oracle(next(coords))
            yield self._fermat(next(triples))

    @staticmethod
    def _oracle(c):
        def check(result):
            doc = checked_doc(result)
            _expect(doc["coords"] == dict(zip("xyztuvw", c)), "coords not echoed")
            _expect(doc["match"] is True, f"oracle disagrees with the formula at {c}")
        argv = ["oracle", "--coords", ",".join(map(str, c))]
        return Op("oracle", lambda: run_cli(argv), check)

    @staticmethod
    def _fermat(triple):
        a, b, c, r = triple
        def check(result):
            doc = checked_doc(result)
            _expect(doc["match"] is True and doc["thirds"] == gen.fermat_closed_form(a, b, c),
                    f"fermat minimum wrong for {triple}")
        argv = ["fermat", "--a", f"{a[0]},{a[1]}", "--b", f"{b[0]},{b[1]}",
                "--c", f"{c[0]},{c[1]}", "--window", str(r)]
        return Op("fermat", lambda: run_cli(argv), check)


WORKLOADS = {w.name: w for w in (CliSurface, OracleNet)}
