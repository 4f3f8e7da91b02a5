"""Run the mutation catalogue: each mutant must fail the tests it names.

Usage (from the repository root, Python standard library only):

    python3 tools/mutants.py

Each entry of ``tools/mutants.json`` names a file under ``src/``, a snippet
that occurs exactly once in it, the snippet's replacement and the test files
to run.  Each distinct set of test files is first run once against an
unmutated copy of ``src/``: it must pass there, and ``hiveweb`` must have been
imported from that copy.  Every such baseline runs before any mutant.  Then,
for each entry, the runner copies ``src/`` to a temporary directory, applies
the one replacement there, runs ``pytest -x -q`` on the listed files against
the copy and prints one canonical JSON line, in catalogue order:

    killed    the tests failed, or could not be collected, on the mutant,
              or ran more than ten times as long as on the unmutated copy
              plus a minute ("timed_out": a mutated loop that never ends)
    survived  they passed (a test gap, unless the entry is marked
              "equivalent" with a one-line reason)
    stale     the snippet no longer occurs exactly once
    error     the tests did not pass on the unmutated copy (exit code in
              "baseline"), or pytest could not run them on the mutant (exit
              code in "pytest")

Every pytest run of one catalogue run, baselines and mutants alike, gets the
same ``--hypothesis-seed``, drawn once per run and printed first as
``{"hypothesis_seed":N}``: a mutant's tests draw what its baseline drew, and
a failed baseline can be rerun as ``pytest --hypothesis-seed=N TESTS``.

The exit code is 0 when every entry is killed, or survived and is marked
equivalent.  The source tree is never written to.  Baselines and mutants
each run one pytest process per CPU the runner may use, at the same time.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = Path(__file__).with_name("mutants.json")
# pytest in-process, then exit 6 (no pytest exit code) if tests that passed
# did not import hiveweb from the copy under test, given as argv[1]
PYTEST = """\
import sys, pytest
code = pytest.main(sys.argv[2:])
module = sys.modules.get("hiveweb")
sys.exit(6 if code == 0 and not (module and module.__file__.startswith(sys.argv[1])) else code)
"""


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def pytest(src: Path, tests: list[str], seed: int, timeout: float | None = None) -> int | None:
    """pytest's exit code at Hypothesis seed ``seed``, or None if it ran
    longer than ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-c", PYTEST, str(src), "-x", "-q", "-p", "no:cacheprovider",
             f"--hypothesis-seed={seed}", *(str(ROOT / test) for test in tests)],
            cwd=src.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def baseline(tests: tuple[str, ...], seed: int) -> tuple[int | None, float]:
    """Exit code and run time of ``tests`` on an unmutated copy of ``src/``."""
    with tempfile.TemporaryDirectory(prefix="baseline-") as tmp:
        src = copy_src(tmp)
        start = time.monotonic()
        return pytest(src, list(tests), seed), time.monotonic() - start


def run_one(entry: dict, baselines: dict, seed: int) -> dict:
    result = {"id": entry["id"]}
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = copy_src(tmp)
        target = src.parent / entry["file"]
        text = target.read_text() if target.is_file() else ""
        if text.count(entry["snippet"]) != 1:
            return {**result, "status": "stale"}
        code, seconds = baselines[tuple(entry["tests"])]
        if code != 0:
            return {**result, "status": "error", "baseline": code}
        target.write_text(text.replace(entry["snippet"], entry["replacement"]))
        code = pytest(src, entry["tests"], seed, timeout=10 * seconds + 60)
    if code is None:
        return {**result, "status": "killed", "timed_out": True}
    if code in (1, 2):  # 2: a test module failed to import the mutant
        return {**result, "status": "killed"}
    if code == 0:
        status = {"status": "survived"}
        if "equivalent" in entry:
            status["equivalent"] = entry["equivalent"]
        return {**result, **status}
    return {**result, "status": "error", "pytest": code}


def main() -> int:
    entries = json.loads(CATALOGUE.read_text())
    test_sets = list(dict.fromkeys(tuple(entry["tests"]) for entry in entries))
    seed = random.randrange(2**32)
    print(json.dumps({"hypothesis_seed": seed}, separators=(",", ":")), flush=True)
    ok = True
    # each job waits on its own pytest process, so one thread per CPU keeps
    # every CPU busy
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        baselines = dict(zip(test_sets, pool.map(lambda t: baseline(t, seed), test_sets)))
        for entry, result in zip(entries, pool.map(lambda e: run_one(e, baselines, seed),
                                                   entries)):
            print(json.dumps(result, sort_keys=True, separators=(",", ":")), flush=True)
            ok &= result["status"] == "killed" or (
                result["status"] == "survived" and "equivalent" in entry)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
