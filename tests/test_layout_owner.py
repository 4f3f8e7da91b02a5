"""The quiver layout and the gluing of cells have one owner: ``hiveweb.surface``.

Where each hive label a1..a7 sits in a triangle (``LAYOUT``, ``CENTER``,
``SIDE_LABELS``) and how a quiver vertex key is spelled (``c:<triangle>``,
``e:<edge>:<slot>``) are decided in ``surface.py`` alone; the other modules
work on the positions a ``Triangulation`` gives them (``keys`` and each
cell's ``frame``).  Which side carries which (near, far) pair is read by one
function outside the walk, ``surface._near_far``: no other module reads or
imports ``SIDE_LABELS``.  Which positions two cells share is decided there too:
the other modules glue cells by writing each cell's values at its frame's
positions, and none of them looks up an edge's slots in ``slot0`` or a
center by ``CENTER``.  Only ``surface.py`` reads the triangulation's
private tables and words the refusal of an unsound triangulation, in the
walk that decides and reports the structure (an edge attached to an
unknown triangle) and in the gate ``Triangulation.check`` (its structural
violations); the other modules ask the gate.  These checks read the
package's source with ``ast``.
"""

import ast
from pathlib import Path

import hiveweb

PACKAGE = Path(hiveweb.__file__).parent
OWNER = "surface.py"
LAYOUT_NAMES = {"LAYOUT", "CENTER", "SIDE_LABELS"}
PRIVATE_TABLES = {"_ids", "_edge_by_id"}
UNSOUND = ("unknown-triangle", "structural violations")


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _imports_hive(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "hiveweb.hive" for alias in node.names)
    return node.module in ("hive", "hiveweb.hive") or (
        node.module in (None, "hiveweb") and any(alias.name == "hive" for alias in node.names))


def test_surface_imports_nothing_from_hive():
    tree = _trees()[OWNER]
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and _imports_hive(node)] == []


def test_only_surface_assigns_the_layout():
    assigned = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                target = node.id if isinstance(node, ast.Name) else node.attr
                if target in LAYOUT_NAMES and name != OWNER:
                    assigned.append((name, node.lineno, target))
    assert assigned == []


def test_only_surface_spells_a_vertex_key():
    spelled = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr) and node.values:
                head = node.values[0]
                if (isinstance(head, ast.Constant) and isinstance(head.value, str)
                        and head.value.startswith(("c:", "e:")) and name != OWNER):
                    spelled.append((name, node.lineno))
    assert spelled == []


def _sites(predicate):
    """(module, line) of each node of the package that ``predicate`` holds for."""
    return [(name, node.lineno) for name, tree in _trees().items()
            for node in ast.walk(tree) if predicate(node)]


def _words_unknown_cell(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(phrase in node.value for phrase in UNSOUND))


def _reads_private_table(node):
    return isinstance(node, ast.Attribute) and node.attr in PRIVATE_TABLES


def test_only_surface_words_the_unknown_cell_refusal():
    assert [site for site in _sites(_words_unknown_cell) if site[0] != OWNER] == []


def test_only_surface_reads_the_private_tables():
    assert [site for site in _sites(_reads_private_table) if site[0] != OWNER] == []


def _named(node, name):
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _places_by_hand(node):
    """An edge's slots looked up in ``slot0``, or ``CENTER`` read or imported."""
    if isinstance(node, ast.Subscript):
        return _named(node.value, "slot0")
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "CENTER" for alias in node.names)
    return _named(node, "CENTER") and isinstance(node.ctx, ast.Load)


def test_only_surface_places_slots_and_centers():
    assert [site for site in _sites(_places_by_hand) if site[0] != OWNER] == []


def _reads_a_side(node):
    """``SIDE_LABELS`` read or imported."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "SIDE_LABELS" for alias in node.names)
    return _named(node, "SIDE_LABELS") and isinstance(node.ctx, ast.Load)


def test_only_surface_reads_a_side():
    assert [site for site in _sites(_reads_a_side) if site[0] != OWNER] == []


def test_the_checks_see_the_owner():
    tree = _trees()[OWNER]
    assert LAYOUT_NAMES <= {node.id for node in ast.walk(tree)
                            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert any(isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant)
               and node.values[0].value.startswith("e:") for node in ast.walk(tree))
    assert [name for name, _ in _sites(_words_unknown_cell)] == [OWNER] * len(UNSOUND)
    assert PRIVATE_TABLES == {node.attr for node in ast.walk(tree) if _reads_private_table(node)}
    placed = {type(node) for node in ast.walk(tree) if _places_by_hand(node)}
    assert placed == {ast.Subscript, ast.Name}  # slot0[...] and CENTER
    readers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and any(_reads_a_side(inner) for inner in ast.walk(node))}
    assert readers == {"_walk", "_near_far"}  # the walk, and the one reader outside it
