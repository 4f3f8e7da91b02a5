"""A fixed pure-Python job that measures how fast the machine runs right now.

On a shared host the speed at which this process executes changes by up to
1.6x within seconds and drifts over minutes, with thread CPU time equal to
wall time, so no choice of statistic over raw timings removes it.  The
benchmark therefore times this kernel after every operation and scales each
timing to the speed at which the kernel takes ``NOMINAL_S``.  The kernel does
the kind of work the library does (a Dijkstra over tuple-keyed dicts with a
heap, then a JSON round trip) and imports nothing from ``hiveweb``, so no
change to the library moves it.
"""

from __future__ import annotations

import gc
import heapq
import json
import time

NOMINAL_S = 0.004
GRID = 24


def kernel(n: int = GRID) -> dict:
    dist = {(0, 0): 0}
    heap = [(0, (0, 0))]
    done = set()
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if (x, y) in done:
            continue
        done.add((x, y))
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1), (x + 1, y - 1)):
            if 0 <= nx < n and 0 <= ny < n:
                nd = d + 1 + (nx * 7 + ny * 13) % 5
                if nd < dist.get((nx, ny), 1 << 30):
                    dist[(nx, ny)] = nd
                    heapq.heappush(heap, (nd, (nx, ny)))
    doc = {f"{x},{y}": {"d": v, "p": [x, y]} for (x, y), v in dist.items()}
    return json.loads(json.dumps(doc, sort_keys=True))


def timed() -> float:
    """Seconds one kernel run takes, with the cyclic collector held off so
    that the garbage an operation left behind does not land in it."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(samples: list[float]) -> float:
    """Factor that turns timings taken alongside ``samples`` into timings at
    the nominal speed."""
    return NOMINAL_S * len(samples) / sum(samples)
