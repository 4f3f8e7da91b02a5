"""hiveweb benchmark: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload cli-surface --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; it imports ``hiveweb`` from ``src/`` there.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the Python version,
platform, CPU count, git commit, latency sample count and failure ratio.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json.  A
pass is a fixed list of the workload's first ``pass_ops`` operations (at
least 100, so that ten or more lie beyond p90); each operation starts when
the previous one has been checked, and checks run outside the timed region.
Passes repeat for ``--seconds``.  After every operation the reference kernel
(``reference.py``) is timed too, and every timing of a pass is scaled by the
nominal over the mean kernel time of that pass: the metrics are times at the
speed where the kernel takes 4 ms, so that the shared host's changes of
speed cancel out.  The unscaled figures and the kernel's mean time are on
the info line.  ``ops_per_s`` is the operation count over the summed scaled
latencies, and p50 and p90 are taken over all of them.  ``setup_s`` is the
median over five set-ups (fifteen when one takes under half a second), each
scaled by kernel runs just before and after it: this process's own and the
rest in fresh child processes, so that each one fills the sampler's cache
from cold.

``--trace 1`` gives the per-layer metrics: a fixed number of operations runs
once untraced and once with spans around the library's public functions
(``layers.py``), so counts repeat exactly; a child process times the size
ladder.  Spans are written to ``.bench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
CHEAP_SETUP_S = 0.5
SETUP_REFERENCE_RUNS = 10
LADDER_M = (12, 50, 200, 400)
LADDER_K = (1, 2, 3)
TRACE_CHUNKS = 4


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "hiveweb" / "__init__.py").is_file():
    _fail(f"no hiveweb sources under {SRC}; run from the root of a checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import gen  # noqa: E402
import reference  # noqa: E402
import hiveweb  # noqa: E402
from hiveweb import sampling, surface  # noqa: E402
from layers import CLI_LABELS, hook, metrics as layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CliResult  # noqa: E402

if Path(hiveweb.__file__).resolve().parent != SRC / "hiveweb":
    _fail(f"imported hiveweb from {hiveweb.__file__}, not from {SRC}")


def measure(ops, count: int, tracer=None, speed: bool = False) -> dict:
    """Run the first ``count`` of ``ops`` closed-loop, timing each call and
    checking its result untimed; with ``speed``, time the reference kernel
    after each one."""
    latencies, failures, references, out_bytes = [], [], [], 0
    for op in itertools.islice(ops, count):
        if tracer is not None:
            tracer.begin_op(op.label)
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a crash is a failed operation, not a stop
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                op.check(result)
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append(f"{op.label}: {type(error).__name__}: {error}"[:300])
        if isinstance(result, CliResult):
            out_bytes += len(result.out.encode())
        latencies.append(elapsed)
        if speed:
            references.append(reference.timed())
    return {"latencies": latencies, "failures": failures, "references": references,
            "timed_s": sum(latencies), "out_bytes": out_bytes}


def scaled_passes(workload, seconds: float) -> tuple[list[float], dict]:
    """Latencies of repeated passes over ``seconds``, each scaled to the
    nominal speed by the kernel runs of its own pass, and every attempt."""
    ops = list(itertools.islice(workload.ops(), workload.pass_ops))
    reference.timed()  # first call warms the kernel's code
    passes, start = [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(measure(ops, len(ops), speed=True))
    scaled = [x * reference.scale(p["references"]) for p in passes for x in p["latencies"]]
    attempts = {key: [x for p in passes for x in p[key]]
                for key in ("latencies", "failures", "references")}
    return scaled, attempts


def _child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        _fail(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_setup(workload) -> float:
    """Seconds one set-up takes at the nominal speed."""
    reference.timed()
    before = [reference.timed() for _ in range(SETUP_REFERENCE_RUNS)]
    start = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - start
    after = [reference.timed() for _ in range(SETUP_REFERENCE_RUNS)]
    return elapsed * reference.scale(before + after)


def ladder(seed: int) -> dict[str, float]:
    """Cold single calls at growing sizes; run in a fresh process so that
    every sampler box is built from scratch."""
    out = {}
    for m in LADDER_M:
        diags = gen.random_polygon_diagonals(m, random.Random(seed + m))
        repeats = 5 if m <= 50 else 1
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            surface.build_polygon(m, diags)
            times.append(time.perf_counter() - start)
        out[f"ladder.build_polygon.m{m}_s"] = statistics.median(times)
    tri = surface.build_polygon(12, gen.random_polygon_diagonals(12, random.Random(seed)))
    for k in LADDER_K:
        start = time.perf_counter()
        sampling.sample_hive(tri, k, seed)
        out[f"ladder.sample_first.K{k}_s"] = time.perf_counter() - start
    return out


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(workload, args) -> tuple[dict, dict]:
    setups = [_timed_setup(workload)]
    child_args = ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    child_args += ["--tiny"] if args.tiny else []
    # cheap set-ups are the noisiest relative to their size, so take more
    runs = SETUP_RUNS if setups[0] >= CHEAP_SETUP_S else 3 * SETUP_RUNS
    setups += [_child(child_args)["setup_s"] for _ in range(runs - 1)]
    scaled, run = scaled_passes(workload, args.seconds)
    values = _latency_metrics(scaled)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mib"] = _peak_rss_mib()
    run["info"] = {
        "reference_ms": statistics.mean(run["references"]) * 1e3,
        "unscaled": _latency_metrics(run["latencies"]),
    }
    return values, run


def _latency_metrics(latencies: list[float]) -> dict[str, float]:
    lat_ms = [x * 1e3 for x in latencies]
    return {
        "ops_per_s": len(lat_ms) / sum(latencies),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
    }


def traced(workload, args) -> tuple[dict, dict]:
    tracer = Tracer()
    with tracer:
        hook(tracer)
        tracer.begin_op("setup")
        workload.setup()
        tracer.end_op()
    # the same fixed operations twice, untraced and traced, in alternating
    # chunks so that both see the same machine conditions
    plain_ops, traced_ops = workload.ops(), workload.ops()
    plain, run = [], []
    chunk = workload.trace_ops // TRACE_CHUNKS
    for _ in range(TRACE_CHUNKS):
        plain.append(measure(plain_ops, count=chunk))
        with tracer:
            hook(tracer)
            run.append(measure(traced_ops, count=chunk, tracer=tracer))
    tracer.write(ROOT / ".bench" / f"trace-{args.workload}-{args.seed}.jsonl")

    cli_ms: dict[str, list[float]] = {label: [] for label in CLI_LABELS}
    for name, start, end, parent, op, *_ in tracer.spans:
        if name == "cli" and parent == -1 and tracer.op_labels[op] != "setup":
            cli_ms[tracer.op_labels[op]].append((end - start) * 1e3)
    values = layer_metrics(
        tracer.summary(lambda label: label != "setup"),
        tracer.summary(lambda label: label == "setup"),
        cli_ms,
    )
    values["cli.bytes_out"] = sum(r["out_bytes"] for r in run)
    values["trace.ops_per_s_traced"] = _rate(run)
    values["trace.ops_per_s_untraced"] = _rate(plain)
    values.update(_child(["--ladder", "--seed", str(args.seed)]))
    # both passes are checked; the result counts them together
    both = {key: [x for r in plain + run for x in r[key]]
            for key in ("latencies", "failures")}
    values["fail_ratio"] = len(both["failures"]) / len(both["latencies"])
    return values, both


def _rate(runs) -> float:
    return sum(len(r["latencies"]) for r in runs) / sum(r["timed_s"] for r in runs)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (child mode)")
    parser.add_argument("--ladder", action="store_true",
                        help="time the size ladder and print it (child mode)")
    args = parser.parse_args(argv)

    if args.ladder:
        print(json.dumps(ladder(args.seed)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = ROOT / ".bench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
        if args.setup_only:
            print(json.dumps({"setup_s": _timed_setup(workload)}))
            return 0
        kind = "per_layer" if args.trace else "end_to_end"
        values, run = (traced if args.trace else end_to_end)(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = _declared(kind)
    if set(values) != set(units):
        _fail(f"computed {kind} metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}")
    attempted, failed = len(run["latencies"]), len(run["failures"])
    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "commit": _git_commit(),
        "samples": attempted, "fail_ratio": failed / attempted,
        "first_failures": run["failures"][:5], **run.get("info", {}),
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
