"""Every library name the benchmark uses must still exist.

``bench/layers.py`` wraps library functions by owner and attribute name, and
the benchmark's scripts call library functions by attribute chains such as
``surface.Triangulation.from_json``; a renamed or removed target would
otherwise only show up when the benchmark runs.  The hooks are looked up,
never installed, and the scripts are parsed, never imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def hooks():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        import layers
    return layers.HOOKS


def test_every_hook_target_resolves(hooks):
    assert hooks
    for owner, attr, name, _ in hooks:
        if isinstance(owner, type):
            assert attr in owner.__dict__, name
            target = owner.__dict__[attr]
            target = target.__func__ if isinstance(target, classmethod) else target
        else:
            assert hasattr(owner, attr), name
            target = getattr(owner, attr)
        assert callable(target), name


def _imported(module, name=None):
    """What ``import module`` or ``from module import name`` binds."""
    if name is None:
        return importlib.import_module(module)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def _library_chains():
    """(script, bound name, import, attributes) of every attribute chain in
    ``bench/*.py`` that starts at a name bound by an import from hiveweb."""
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.partition(".")[0]
                    if top == "hiveweb":
                        bound[alias.asname or top] = (alias.name if alias.asname else top, None)
            elif isinstance(node, ast.ImportFrom) and (
                    (node.module or "").partition(".")[0] == "hiveweb"):
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
        for node in ast.walk(tree):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.insert(0, node.attr)
                node = node.value
            if attrs and isinstance(node, ast.Name) and node.id in bound:
                chains.add((path.name, node.id, bound[node.id], tuple(attrs)))
    return sorted(chains)


CHAINS = _library_chains()


def test_the_scripts_call_the_library_by_these_names():
    names = {".".join((name, *attrs)) for _, name, _, attrs in CHAINS}
    assert {"hive.hive_values_from_json", "web.surface_web_to_hive", "web.surface_web_from_json",
            "surface.Triangulation.from_json", "surface.build_polygon", "sampling.sample_hive",
            "cli.run"} <= names


@pytest.mark.parametrize("script,name,source,attrs", CHAINS,
                         ids=[f"{c[0]}: {'.'.join((c[1], *c[3]))}" for c in CHAINS])
def test_every_library_chain_resolves(script, name, source, attrs):
    target = _imported(*source)
    for attr in attrs:
        assert hasattr(target, attr), f"{script}: {name}.{'.'.join(attrs)}"
        target = getattr(target, attr)
