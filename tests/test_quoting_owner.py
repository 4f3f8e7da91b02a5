"""How an error text quotes a value has one owner: ``hiveweb.thirds._shown``.

Every id, key, label and offending value that a reader or a library error
names is quoted as ``_shown`` quotes it: a JSON value as the documents write
it, anything else by ``repr``.  So no f-string of the package converts with
``!r`` and no ``%`` format uses ``%r``, except in the texts of the command
line and the environment, which keep argparse's quoting, and in the
package's ``__getattr__``, which words Python's own ``AttributeError``.  The
exception types in ``errors.py`` word nothing themselves: that module
defines no function.  These checks read the package's source with ``ast``.
"""

import ast
from pathlib import Path

import hiveweb

PACKAGE = Path(hiveweb.__file__).parent
# (module, enclosing function) of each text that may quote by repr
EXEMPT = {
    ("thirds.py", "max_thirds"),  # HIVEWEB_MAX_THIRDS='ten' is not an integer
    ("thirds.py", "parse_ints"),  # --to needs 2 comma-separated integers, got 'a,b'
    ("cli.py", "_Integer.read"),  # argument --seed: expected an integer, got '1_0'
    ("__init__.py", "__getattr__"),
}


def _repr_sites(tree):
    """(enclosing function, line) of each ``!r`` conversion and ``%r`` format in ``tree``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.FormattedValue) and child.conversion == ord("r"):
                sites.append((inner, child.lineno))
            elif (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mod)
                  and isinstance(child.left, ast.Constant) and isinstance(child.left.value, str)
                  and "%r" in child.left.value):
                sites.append((inner, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return sites


def _sites():
    return [(path.name, scope, line) for path in sorted(PACKAGE.glob("*.py"))
            for scope, line in _repr_sites(ast.parse(path.read_text()))]


def test_no_text_quotes_by_repr_outside_the_command_line():
    assert [site for site in _sites() if site[:2] not in EXEMPT] == []


def test_every_exempt_site_still_quotes_by_repr():
    assert {site[:2] for site in _sites()} == EXEMPT


def test_errors_defines_only_types():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))] == []


def test_the_check_sees_both_forms():
    tree = ast.parse('def f(x):\n    return f"{x!r}", "%r" % (x,), f"{x}", "%s" % (x,)\n')
    assert _repr_sites(tree) == [("f", 2), ("f", 2)]
