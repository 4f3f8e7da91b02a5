"""Time the one-shot CLI process: interpreter start, imports and one command.

Usage (Python standard library only):

    python3 tools/startup.py SRC [SRC ...]

Each SRC is a directory holding the ``hiveweb`` package, such as ``src`` of
two checkouts to compare.  Each is first compiled to bytecode under its own
temporary ``-X pycache_prefix``: one run of every command below with
bytecode writing on fills it, stdlib modules included, so the timed runs
read bytecode even where ``PYTHONDONTWRITEBYTECODE`` is set.  Then ROUNDS rounds
run, in every round, for each command, each site mode (``-S`` and the
default ``site``) and each SRC (their order reversed every other round):

    pass           python -c pass: the interpreter alone
    import         python -c "import hiveweb.cli"
    gamma-dist     python -m hiveweb gamma-dist --to 1,1, read off the command table
    gamma-dist=    python -m hiveweb gamma-dist --to=1,1: not plain, so argparse
                   reads it with the parser of that command
    validate-hive  python -m hiveweb validate --hive H, on a hive of a fan
                   triangulation T of the 200-gon that the first SRC samples
    sample         python -m hiveweb sample --triangulation T --bound 3 --seed 0
    oracle         python -m hiveweb oracle --coords -17,6,0,3,6,1,2
    help           python -m hiveweb --help: the parser of every command
    importtime     python -X importtime -c "import hiveweb.cli"

It prints one JSON line per SRC, site mode and command: the median and the
interquartile range of the process wall time in ms.  The ``importtime`` line
gives instead the median cumulative ``-X importtime`` of ``hiveweb.cli``
(which includes the ``hiveweb`` package and everything it imports) and the
number of modules outside ``hiveweb`` loaded after ``import hiveweb.cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MODES = {"-S": ["-S"], "site": []}
# each median and IQR is over this many interleaved runs, as in BENCH_24.json
ROUNDS = 25
COUNT = ("import sys, hiveweb.cli; "
         "print(sum(m.partition('.')[0] != 'hiveweb' for m in sys.modules))")
# a fan of the 200-gon, as the triangulation document the CLI reads
FAN = ("import json; from hiveweb.surface import build_polygon; "
       "print(json.dumps(build_polygon(200, [(0, k) for k in range(2, 199)]).to_json()))")


def commands(tri: Path, hive: Path) -> dict[str, list[str]]:
    return {
        "pass": ["-c", "pass"],
        "import": ["-c", "import hiveweb.cli"],
        "gamma-dist": ["-m", "hiveweb", "gamma-dist", "--to", "1,1"],
        "gamma-dist=": ["-m", "hiveweb", "gamma-dist", "--to=1,1"],
        "validate-hive": ["-m", "hiveweb", "validate", "--hive", str(hive)],
        "sample": ["-m", "hiveweb", "sample", "--triangulation", str(tri), "--bound", "3",
                   "--seed", "0"],
        "oracle": ["-m", "hiveweb", "oracle", "--coords", "-17,6,0,3,6,1,2"],
        "help": ["-m", "hiveweb", "--help"],
        "importtime": ["-X", "importtime", "-c", COUNT],
    }


def python(src: Path, prefix: str | None, argv: list[str], write: bool = False):
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    cache = ["-X", f"pycache_prefix={prefix}"] if prefix else []
    proc = subprocess.run([sys.executable, *cache, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode:
        sys.exit(f"{argv} in {src} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def cli_importtime_ms(stderr: str) -> float:
    """The cumulative -X importtime of the hiveweb.cli line, in ms."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "hiveweb.cli":
            return int(fields[1]) / 1000
    sys.exit("no hiveweb.cli line in the -X importtime output")


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median_ms": round(q2, 3), "iqr_ms": round(q3 - q1, 3), "n": len(values)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", type=lambda p: Path(p).resolve())
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tri, hive = Path(tmp, "t.json"), Path(tmp, "h.json")
        tri.write_text(python(args.src[0], None, ["-c", FAN]).stdout)
        python(args.src[0], None, ["-m", "hiveweb", "sample", "--triangulation", str(tri),
                                   "--bound", "3", "--seed", "0", "--out", str(hive)])
        argvs = commands(tri, hive)
        prefixes = {}
        for k, src in enumerate(args.src):
            prefixes[src] = prefix = os.path.join(tmp, f"pyc{k}")
            python(src, prefix, ["-m", "compileall", "-q", str(src)], write=True)
            for mode in MODES.values():
                for argv in argvs.values():
                    python(src, prefix, [*mode, *argv], write=True)
        walls, importtimes, modules = {}, {}, {}
        for r in range(ROUNDS):
            for name, argv in argvs.items():
                for mode, flags in MODES.items():
                    for src in args.src[::-1] if r % 2 else args.src:
                        start = time.perf_counter()
                        proc = python(src, prefixes[src], [*flags, *argv])
                        wall = (time.perf_counter() - start) * 1000
                        if name != "importtime":
                            walls.setdefault((src, mode, name), []).append(wall)
                            continue
                        importtimes.setdefault((src, mode), []).append(
                            cli_importtime_ms(proc.stderr))
                        modules[src, mode] = int(proc.stdout)
    for (src, mode, name), values in walls.items():
        print(json.dumps({"src": str(src), "site": mode, "command": name, **summary(values)},
                         sort_keys=True))
    for (src, mode), values in importtimes.items():
        print(json.dumps({"src": str(src), "site": mode, "command": "importtime",
                          "cli_importtime": summary(values),
                          "modules_outside_hiveweb": modules[src, mode]}, sort_keys=True))


if __name__ == "__main__":
    main()
