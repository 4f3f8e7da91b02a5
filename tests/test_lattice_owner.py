"""The lattice graph has one owner: ``hiveweb.metric``.

A lattice window and a dual net are both ``metric._LatticeGraph``s, so the
padded layout of a lattice piece and the breadth-first search on it are
written once, in ``metric.py``: it alone calls ``_bfs`` (at one site) and
``_layout`` and makes a padded list (``[-1] * n``), and ``surfacoid.py``,
which builds the nets, imports neither ``_bfs`` nor ``_lattice_piece``.
These checks read the package's source with ``ast``.
"""

import ast
from pathlib import Path

import hiveweb

PACKAGE = Path(hiveweb.__file__).parent
OWNER = "metric.py"


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _sites(predicate):
    """(module, line) of each node of the package that ``predicate`` holds for."""
    return [(name, node.lineno) for name, tree in _trees().items()
            for node in ast.walk(tree) if predicate(node)]


def _calls(name):
    def predicate(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)
    return predicate


def _pads(node):
    """``[-1] * n``: a list of cells that are outside the piece until set."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.List) and len(node.left.elts) == 1
            and ast.unparse(node.left.elts[0]) == "-1")


def test_only_metric_searches_a_lattice_piece_and_at_one_site():
    assert [name for name, _ in _sites(_calls("_bfs"))] == [OWNER]


def test_only_metric_lays_out_a_padded_list():
    assert [site for site in _sites(_pads) if site[0] != OWNER] == []
    assert [site for site in _sites(_calls("_layout")) if site[0] != OWNER] == []


def test_surfacoid_imports_neither_the_search_nor_the_list_builder():
    tree = _trees()["surfacoid.py"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported.isdisjoint({"_bfs", "_lattice_piece"})


def test_the_checks_see_the_owner():
    assert {name for name, _ in _sites(_pads)} == {OWNER}
    assert [name for name, _ in _sites(_calls("_layout"))] == [OWNER, OWNER]
