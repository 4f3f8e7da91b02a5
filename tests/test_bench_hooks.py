"""Every attribute the benchmark's tracer hooks must still exist.

``bench/layers.py`` wraps library functions by owner and attribute name; a
renamed or removed target would otherwise only show up when the traced
benchmark runs.  The hooks are looked up, never installed.
"""

from __future__ import annotations

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
