"""The mutation catalogue cannot rot silently.

``tools/mutants.py`` applies each entry of ``tools/mutants.json`` to a copy of
``src/`` and runs the entry's tests against it; that full run stays out of
this suite.  Here every entry is only checked to still apply: its file is
under ``src/``, its snippet occurs there exactly once and differs from its
replacement, and its test files exist.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRIES = json.loads((ROOT / "tools" / "mutants.json").read_text())


def test_ids_are_unique_and_entries_complete():
    assert len({entry["id"] for entry in ENTRIES}) == len(ENTRIES)
    for entry in ENTRIES:
        assert {"id", "file", "snippet", "replacement", "tests"} <= entry.keys() <= {
            "id", "file", "snippet", "replacement", "tests", "equivalent"}, entry["id"]


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["id"] for entry in ENTRIES])
def test_each_snippet_occurs_exactly_once(entry):
    assert entry["file"].startswith("src/")
    assert (ROOT / entry["file"]).read_text().count(entry["snippet"]) == 1
    assert entry["snippet"] != entry["replacement"]
    assert entry["tests"] and all((ROOT / test).is_file() for test in entry["tests"])
