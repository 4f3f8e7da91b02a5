"""Hive, web and triangulation documents each have one owner.

``hiveweb.hive`` is the one reader and the one writer of a hive document's
``values``, and it alone words the refusal of a key that is not a vertex key;
``hiveweb.web`` is the one reader and the one writer of a web document's
``coords``; ``hiveweb.surface`` alone writes a triangulation document's
``edges``.  The writers write canonical JSON text, so a string constant that
writes a key (``"values":``) counts as building it.  The CLI loads files,
resolves the triangulation and maps errors to exit codes, and calls those
functions for the rest.  Each check names the owner's function, so it also
fails if it stops seeing the owner.  These checks read the package's source
with ``ast``.
"""

import ast
from pathlib import Path

import hiveweb

PACKAGE = Path(hiveweb.__file__).parent
# the oracle report's "coords" is the 7-tuple of the one triangle it was given,
# written in place as {"x": ..., "w": ...}; it is not a web document
ORACLE_REPORT = ("cli.py", "_oracle_once", "builds")
# the double-attached-side violation lists the edges at that side; it is not
# a triangulation document
SIDE_VIOLATION = ("surface.py", "_walk", "builds")


def _walk(node, func=None):
    """(name of the innermost enclosing function, node) for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield func, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _walk(child, inner)


def _nodes():
    for path in sorted(PACKAGE.glob("*.py")):
        for func, node in _walk(ast.parse(path.read_text())):
            yield path.name, func, node


def _is(node, field):
    return isinstance(node, ast.Constant) and node.value == field


def _sites(field):
    """(module, function, "reads" or "builds") of each subscript by ``field``,
    each dict display or ``dict(...)`` call with a ``field`` key and each
    string constant that writes ``"field":``."""
    sites = set()
    for module, func, node in _nodes():
        if isinstance(node, ast.Subscript) and _is(node.slice, field):
            sites.add((module, func, "reads"))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and f'"{field}":' in node.value):
            sites.add((module, func, "builds"))
        elif isinstance(node, ast.Dict) and any(_is(key, field) for key in node.keys):
            sites.add((module, func, "builds"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "dict" and any(k.arg == field for k in node.keywords)):
            sites.add((module, func, "builds"))
    return sites


def test_only_hive_reads_and_writes_hive_values():
    assert _sites("values") == {("hive.py", "hive_thirds_from_json", "reads"),
                                ("hive.py", "hive_doc", "builds")}


def test_only_web_reads_and_writes_web_coords():
    assert _sites("coords") - {ORACLE_REPORT} == {("web.py", "surface_web_from_json", "reads"),
                                                  ("web.py", "web_doc", "builds")}


def test_only_surface_writes_triangulation_edges():
    assert {site for site in _sites("edges") if site[2] == "builds"} - {SIDE_VIOLATION} == {
        ("surface.py", "to_text", "builds")}


def test_only_hive_words_the_alias_refusal():
    worded = {(module, func) for module, func, node in _nodes()
              if isinstance(node, ast.JoinedStr)
              and any(isinstance(part, ast.Constant) and "is not a vertex key" in part.value
                      for part in node.values)}
    assert worded == {("hive.py", "hive_thirds_from_json")}
