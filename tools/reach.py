"""Which statements of the library the CLI corpus reaches.

Usage (from the repository root, Python standard library only):

    python3 tools/reach.py

Runs every case of ``tools/corpus.py`` in-process through ``corpus.run_case``
under a ``sys.settrace`` tracer that records each line run in the ``hiveweb``
package, then counts the statements of every function body in the package
(a leading docstring not counted).  Prints the statements reached out of the
total, then each function that no case enters, with its statement count.
``hiveweb`` is imported from ``PYTHONPATH`` when it is there, else from
``src/``.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def functions(tree: ast.Module, prefix: str = ""):
    """(qualified name, statement lines) of each function under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                body = body[1:]
            yield prefix + node.name, {s.lineno for b in body for s in ast.walk(b)
                                       if isinstance(s, ast.stmt)}
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from functions(node, f"{prefix}{node.name}.")


def main() -> int:
    if "PYTHONPATH" not in os.environ:
        sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tools"))
    import corpus
    import hiveweb

    package, reached = Path(hiveweb.__file__).parent, set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(package)) else None

    sys.settrace(tracer)
    try:
        for case in corpus.cases():
            corpus.run_case(case)
    finally:
        sys.settrace(None)
    statements, missed = set(), []
    for path in sorted(package.glob("*.py")):
        for name, lines in functions(ast.parse(path.read_text())):
            sites = {(str(path), line) for line in lines}
            statements |= sites  # a nested function's lines are its parent's too
            if sites and sites.isdisjoint(reached):
                missed.append(f"  {path.stem}.{name} ({len(sites)})")
    print(f"reached {len(statements & reached)} of {len(statements)} statements"
          " in the function bodies of hiveweb")
    print("functions no case enters (statements):", *missed, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
