"""Smoke test of the benchmark itself, at the smallest sizes.

    python3 -m pytest bench/test_smoke.py

Every workload must print every metric BENCHMARK.json names, with no failed
operation; a tampered expected output must be counted as a failure; and
without the library's sources the benchmark must refuse to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_present_and_nothing_fails(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["fail_ratio"] == 0
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert info["reference_ms"] > 0
        assert all(info["unscaled"][name] > 0
                   for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"))


def _failures(workload, ops=40):
    workdir = ROOT / ".bench" / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup()
        return run.measure(workload.ops(), count=ops)["failures"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _workload(name):
    return WORKLOADS[name](3, ROOT / ".bench" / "smoke", tiny=True)


def test_untampered_runs_clean():
    for name in WORKLOADS:
        assert _failures(_workload(name)) == []


def test_tampered_hive_is_caught():
    w = _workload("cli-surface")
    setup = w.setup
    def tampered_setup():
        setup()
        key = sorted(w.expected_values)[0]
        w.expected_values[key] = {"thirds": w.expected_values[key]["thirds"] + 3}
    w.setup = tampered_setup
    failures = _failures(w)
    assert failures and all(f.startswith(("hive2web", "web2hive")) for f in failures)


def test_tampered_fermat_value_is_caught(monkeypatch):
    monkeypatch.setattr(gen, "fermat_closed_form", lambda a, b, c: 1)
    w = _workload("oracle-net")
    w.setup = lambda: None  # set-up checks the same value
    failures = _failures(w)
    assert failures and all(f.startswith("fermat") for f in failures)


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".bench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "oracle-net", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
