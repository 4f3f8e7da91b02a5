"""The lattice graph has one owner: ``hiveweb.metric``.

A lattice window and a dual net are both ``metric._LatticeGraph``s, so the
padded layout of a lattice piece and the breadth-first search on it are
written once, in ``metric.py``: it alone calls ``_bfs`` and ``_layout``
(each at one site) and makes a padded list (``[-1] * n``), and
``surfacoid.py``, which builds the nets, imports neither ``_bfs`` nor
``_layout``.  A lattice graph is searched, not listed: adjacency lists
(``_fwd`` and ``_back``) are touched only by ``OrientedGraph``, which builds
them for a graph read from a document, and ``_thirds_from``, which searches
them.  These checks read the package's source with ``ast``.
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
    assert imported.isdisjoint({"_bfs", "_layout"})


def _list_sites():
    """(module, top-level definition) of each ``._fwd`` or ``._back`` in
    the package."""
    return {(name, getattr(top, "name", None)) for name, tree in _trees().items()
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr in ("_fwd", "_back")}


def test_only_the_document_graph_and_its_search_touch_adjacency_lists():
    assert _list_sites() == {(OWNER, "OrientedGraph"), (OWNER, "_thirds_from")}


def test_the_checks_see_the_owner():
    assert {name for name, _ in _sites(_pads)} == {OWNER}
    assert [name for name, _ in _sites(_calls("_layout"))] == [OWNER]
