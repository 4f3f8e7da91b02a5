"""Batch command line over the library: one JSON document per invocation.

Each ``cmd_<name>`` returns its document's canonical JSON text (sorted keys,
no insignificant whitespace, integers only) and its exit code: 0 success /
valid, 1 an invalid result (a hive that fails validation, an oracle
mismatch).  ``run()`` calls it by name and is the one writer: it writes that
text, or the ``{"error", "detail"}`` document of a domain error or an unknown
name (exit 1), once, to ``--out`` or stdout.  Malformed input and usage errors
exit 2 (usage text goes to stderr).  ``run()`` holds the cyclic collector off
for one command and restores the caller's setting.

A command is one short process, so start-up is much of its time: the modules
only some commands use (``metric``, ``surfacoid``, ``sampling``, ``random``)
are imported by those commands.  ``run()`` reads a plain argv straight off
the command table, ``_COMMANDS``, and builds no parser: a command, then
``--flag value`` pairs of its flags, each written out in full and given
once, every required one present, any value but ``--``, each size flag's
value an integer.  Any other argv (help, abbreviations, ``--flag=value``, a
repeated flag, ``--``, a missing flag, a size that is no integer) goes to
argparse: the one parser of every command parses it once, so every usage
and help text and every usage error comes from argparse.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from . import hive as hive_mod
from . import surface, thirds, web
from .errors import HivewebError, MalformedInput
from .thirds import json_text, parse_ints, read_object


def _emit(text: str, out_path) -> None:
    """Write one canonical JSON document's ``text`` and a newline."""
    text += "\n"
    if out_path is not None:
        from pathlib import Path  # imported on use: at start-up it costs more than most commands

        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
            raise MalformedInput(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _load_doc(path: str):
    if "\0" in path:  # open() refuses such a path with ValueError
        raise MalformedInput(f"cannot read {path}: embedded null byte")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}")


def _load_triangulation(path: str) -> surface.Triangulation:
    return surface.Triangulation.from_json(_load_doc(path))


def _load(path: str, args, kind: str, doc=None):
    """``tri`` and what its reader reads from the ``kind`` ("hive" or "web")
    document at ``path`` (``doc`` if read already); ``tri`` comes from
    --triangulation, else embedded, else the file it names relative to ``path``."""
    if doc is None:
        doc = _load_doc(path)
    if args.triangulation is not None:
        tri = _load_triangulation(args.triangulation)
    elif isinstance(ref := read_object(doc, f"{kind} document").get("triangulation"), str):
        from pathlib import Path  # see _emit
        tri = _load_triangulation(str(Path(path).parent / ref))
    elif isinstance(ref, dict):
        tri = surface.Triangulation.from_json(ref)
    else:
        raise MalformedInput("no triangulation: pass --triangulation or embed one in the document")
    return tri, (web.surface_web_from_json(doc) if kind == "web"
                 else hive_mod.hive_thirds_from_json(doc, tri))


def _coords(text: str) -> web.WebTuple:
    return web._corners_checked(tuple(parse_ints(text, 7, "--coords")))


# -- subcommands -------------------------------------------------------------


def cmd_validate(args) -> tuple[str, int]:
    if args.hive is not None:
        tri, (values, _) = _load(args.hive, args, "hive")
        violations = hive_mod.validate_hive(tri, values)
    elif args.web is not None:
        tri, coords = _load(args.web, args, "web")
        web.surface_web_thirds(tri, coords)  # raises GluingMismatch when bad
        violations = []
    elif args.triangulation is not None:
        violations = surface.validate_complex(_load_triangulation(args.triangulation))
    else:
        raise MalformedInput("validate needs --triangulation, --hive or --web")
    return json_text({"valid": not violations, "violations": violations}), 1 if violations else 0


def cmd_web2hive(args) -> tuple[str, int]:
    if args.coords is not None:
        return json_text(hive_mod.triangle_doc(web.web_to_hive_thirds(*_coords(args.coords)))), 0
    if args.web is None:
        raise MalformedInput("web2hive needs --coords or --web")
    tri, coords = _load(args.web, args, "web")
    return hive_mod.hive_doc(zip(tri.keys, web.surface_web_thirds(tri, coords)), tri), 0


def cmd_hive2web(args) -> tuple[str, int]:
    doc = _load_doc(args.hive)
    if isinstance(doc, dict) and "values" not in doc:
        coords = web.hive_to_web_triangle(hive_mod.triangle_thirds_from_json(doc))
        return json_text(dict(zip("xyztuvw", coords))), 0
    tri, (values, _) = _load(args.hive, args, "hive", doc)
    return web.web_doc(web.hive_to_surface_web(tri, values).items(), tri), 0


def cmd_flip(args) -> tuple[str, int]:
    if args.hive is not None:
        tri, (values, others) = _load(args.hive, args, "hive")
    else:
        tri = _load_triangulation(args.triangulation)
    flipped, frame_old, frame_new, new_edge = surface.flip_triangulation(tri, args.edge)
    hive = ""
    if args.hive is not None:
        bad = hive_mod.validate_hive(tri, values)
        if bad:
            raise HivewebError("hive is invalid before transport: "
                               + thirds.shown_violations(bad))
        # the document's other keys travel along; a transported value replaces one
        moved = hive_mod.octahedron_transport({**others, **dict(zip(tri.keys, values))},
                                              frame_old, frame_new)
        hive = '"hive":%s,' % hive_mod.hive_doc(moved.items())
    return '{%s"new_edge":%s,"old_edge":%s,"triangulation":%s}' % (
        hive, json_text(new_edge), json_text(args.edge), flipped.to_text()), 0


def cmd_potential(args) -> tuple[str, int]:
    tri, (values, _) = _load(args.hive, args, "hive")
    return json_text({"thirds": hive_mod.tropical_potential(tri, values)}), 0


def cmd_cone(args) -> tuple[str, int]:
    tri, (values, _) = _load(args.hive, args, "hive")
    return json_text({"in_positive_cone": hive_mod.is_in_positive_cone(tri, values)}), 0


def _oracle_once(coords: web.WebTuple) -> dict:
    from . import surfacoid

    formula = web.web_to_hive_thirds(*coords)
    oracle = surfacoid.oracle_triangle_hive(coords)
    return {
        "coords": dict(zip("xyztuvw", coords)),
        "formula": hive_mod.triangle_doc(formula),
        "oracle": hive_mod.triangle_doc(oracle),
        "match": formula == oracle,
    }


def cmd_oracle(args) -> tuple[str, int]:
    if args.sweep is not None:
        import random

        rng, bound = random.Random(args.seed), args.bound
        mismatches = []
        for _ in range(args.sweep):
            coords = (rng.randint(-bound, bound), *(rng.randint(0, bound) for _ in range(6)))
            result = _oracle_once(coords)
            if not result["match"]:
                mismatches.append(result)
        return json_text({"instances": args.sweep, "all_match": not mismatches,
                          "mismatches": mismatches}), 1 if mismatches else 0
    if args.coords is None:
        raise MalformedInput("oracle needs --coords or --sweep")
    result = _oracle_once(_coords(args.coords))
    return json_text(result), 0 if result["match"] else 1


def cmd_gamma_dist(args) -> tuple[str, int]:
    from . import metric as metric_mod

    x, y = parse_ints(args.to, 2, "--to")
    x0, y0 = parse_ints(args.src, 2, "--from") if args.src is not None else (0, 0)
    return json_text({"thirds": metric_mod.gamma_distance(x - x0, y - y0)}), 0


def cmd_fermat(args) -> tuple[str, int]:
    from . import metric as metric_mod

    points = [parse_ints(text, 2, flag) for text, flag in
              ((args.a, "--a"), (args.b, "--b"), (args.c, "--c"))]
    value = metric_mod.fermat_closed_form(*points)
    out = {"thirds": value}
    if args.window is not None:
        corners = [f"{x},{y}" for x, y in points]
        brute, argmin = metric_mod.fermat_brute(metric_mod.gamma_window(args.window), *corners)
        out.update(brute={"thirds": brute, "argmin_size": len(argmin)}, match=brute == value)
    return json_text(out), 0


def cmd_sample(args) -> tuple[str, int]:
    from . import sampling

    tri = _load_triangulation(args.triangulation)
    hive = sampling.sample_hive(tri, args.bound, args.seed)
    return hive_mod.hive_doc(zip(tri.keys, hive), tri), 0


def _vertex(graph, name: str):
    """The vertex ``name`` names: the string vertex with that text, else the
    integer vertex whose decimal text it is; an unknown name stays as it is."""
    if name in graph:
        return name
    return next((v for v in graph.vertices if type(v) is int and str(v) == name), name)


def cmd_dist(args) -> tuple[str, int]:
    from . import metric as metric_mod

    graph = metric_mod.OrientedGraph.from_json(_load_doc(args.graph))
    src, to = _vertex(graph, args.src), _vertex(graph, args.to)
    return json_text({"thirds": metric_mod.shortest_distance(graph, src, to)}), 0


class _Value(argparse.Action):
    """A flag's one value, as written.  argparse hands the value of
    ``--flag=--`` over as an empty list; it is refused as ``--flag --`` is."""

    def __call__(self, parser, namespace, text, option_string=None):
        if text == []:
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, self.read(text))

    def read(self, text):
        return text


def _integer(text: str, flag: str):
    """The integer of size flag ``flag``'s ``text``: non-negative and under the
    rule, or a seed's of any magnitude; None when ``text`` writes no such
    integer.  Over the cap it raises the cap's ``MalformedInput``."""
    seed = flag == "--seed"
    if not thirds.is_decimal(text, signed=seed):
        return None
    return thirds.parse_int(text, flag, not seed)


class _Integer(_Value):
    """A size flag's :func:`_integer`, read as it is parsed: unlike a ``type``,
    an action lets the cap's ``MalformedInput`` reach :func:`run`."""

    def read(self, text):
        value = _integer(text, self.option_strings[0])
        if value is None:
            raise argparse.ArgumentError(self, "expected %s integer, got %r" % (
                "an" if self.dest == "seed" else "a non-negative", text))
        return value


# each subcommand in the order --help lists them: its help and its flags with
# their add_argument keywords; every one also takes --out, and run() calls cmd_<name>.
# The one flag table: build_parser and _plain_args both read it.
_COMMANDS = {
    "validate": ("check a triangulation, hive or web",
                 {"--triangulation": {}, "--hive": {}, "--web": {}}),
    "web2hive": ("web coordinates to hive values", {
        "--coords": {"help": "x,y,z,t,u,v,w for a single triangle"},
        "--web": {"help": "surface web JSON file"},
        "--triangulation": {}}),
    "hive2web": ("hive values to web coordinates",
                 {"--hive": {"required": True}, "--triangulation": {}}),
    "flip": ("flip a diagonal, optionally transporting a hive",
             {"--triangulation": {"required": True}, "--edge": {"required": True},
              "--hive": {}}),
    "potential": ("tropical potential of an assignment",
                  {"--hive": {"required": True}, "--triangulation": {}}),
    "cone": ("positive-cone membership",
             {"--hive": {"required": True}, "--triangulation": {}}),
    "oracle": ("compare formula hive against the net oracle", {
        "--coords": {},
        "--sweep": {"action": _Integer, "help": "number of seeded random instances"},
        "--seed": {"action": _Integer, "default": 0},
        "--bound": {"action": _Integer, "default": 2}}),
    "gamma-dist": ("closed-form lattice distance", {
        "--to": {"required": True, "help": "x,y"},
        "--from": {"dest": "src", "help": "x,y (default origin)"}}),
    "fermat": ("closed-form tripod minimum", {
        "--a": {"required": True, "help": "x,y of the lower-left point"},
        "--b": {"required": True, "help": "x,y of the lower-right point"},
        "--c": {"required": True, "help": "x,y of the upper point"},
        "--window": {"action": _Integer, "help": "also brute-force on this window radius"}}),
    "sample": ("deterministic valid hive", {
        "--triangulation": {"required": True},
        "--bound": {"action": _Integer, "required": True},
        "--seed": {"action": _Integer, "required": True}}),
    "dist": ("shortest distance in an oriented graph", {
        "--graph": {"required": True},
        "--from": {"dest": "src", "required": True},
        "--to": {"required": True}}),
}


def _function(command: str):
    """The function that runs ``command``."""
    return globals()["cmd_" + command.replace("-", "_")]


def _dest(flag: str, keywords: dict) -> str:
    """The attribute that argparse stores ``flag``'s value under."""
    return keywords.get("dest") or flag[2:].replace("-", "_")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command."""
    parser = argparse.ArgumentParser(
        prog="hiveweb",
        description="Exact web/hive calculus on triangulated surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, keywords in flags.items():
            p.add_argument(flag, **{"action": _Value, **keywords})
        p.add_argument("--out", action=_Value,
                       help="write the JSON document here instead of stdout")
    return parser


# flags whose value is a coordinate list, an edge or vertex id or a path
_VALUE_FLAGS = {flag for _, flags in _COMMANDS.values() for flag, keywords in flags.items()
                if "action" not in keywords} | {"--out"}


def _absorb_negative_values(argv):
    """Let value flags take values like "-1,0", "-5~2" or "-h.json" without
    argparse reading them as options."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _plain_args(argv):
    """The namespace that argparse builds from a plain argv: a command, then
    ``--flag value`` pairs of its flags, each written out in full and given
    once, every required one present, any value but ``--`` (argparse takes a
    dash-led one too, see :func:`_absorb_negative_values`).  Size flags are
    read by :func:`_integer` in argv order.  None for any other argv, and for
    a size flag that is no integer: argparse reads those and words their help
    and errors."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    flags = _COMMANDS[argv[0]][1]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) < len(argv) // 2:  # a flag given twice
        return None
    for flag, text in given.items():
        if flag not in flags and flag != "--out" or text == "--":
            return None
    args = argparse.Namespace(command=argv[0], out=None)
    for flag, keywords in flags.items():
        if keywords.get("required") and flag not in given:
            return None
        setattr(args, _dest(flag, keywords), keywords.get("default"))
    for flag, text in given.items():  # in argv order: the first flag over the cap is reported
        keywords = flags.get(flag, {})
        if keywords.get("action") is _Integer:
            text = _integer(text, flag)
            if text is None:
                return None
        setattr(args, _dest(flag, keywords), text)
    return args


def run(argv) -> int:
    # a command's objects are acyclic trees that refcounting frees, so the
    # cyclic collector is held off while it runs and the caller's setting
    # comes back on every way out
    was = gc.isenabled()
    gc.disable()
    thirds.max_thirds.cache_clear()  # before parsing: the size flags read the cap
    try:
        try:
            argv = list(argv)
            args = _plain_args(argv)
            if args is None:  # argparse reads it, and words its help and errors
                args = build_parser().parse_args(_absorb_negative_values(argv))
            text, code = _function(args.command)(args)
        except (HivewebError, KeyError) as exc:
            detail = str(exc.args[0]) if exc.args else str(exc)
            text, code = json_text({"error": type(exc).__name__, "detail": detail}), 1
        _emit(text, args.out)
        return code
    except SystemExit as exc:  # argparse's exit, on --help or a usage error
        return exc.code if isinstance(exc.code, int) else 2
    except MalformedInput as exc:  # also when the error report cannot be written
        print(f"hiveweb: {exc}", file=sys.stderr)
        return 2
    finally:
        if was:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
