"""Deterministic valid-hive generation.

Triangles are visited in spanning-tree order.  For each one, every
coordinate tuple in the box x in [-K, K], corner counts in [0, K] is a
candidate; tuples whose side values disagree with already-fixed shared-edge
values are filtered out and the seeded generator picks one of the survivors.
All candidate hive tuples (ints, in thirds) for a given K are precomputed once
and indexed by their per-side value pairs, so each constrained lookup is a
dict hit.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import product

from .errors import InvalidTriangulation, SamplingFailed
from .hive import HiveThirds, HiveValues
from .surface import SIDE_LABELS, Triangulation
from .thirds import Third
from .web import web_to_hive_thirds


@lru_cache(maxsize=8)
def _box(k: int):
    """All box hives a1..a7, in thirds, with their per-side value indexes."""
    entries = [
        web_to_hive_thirds(x, *rest)
        for x in range(-k, k + 1)
        for rest in product(range(k + 1), repeat=6)
    ]
    by_side: tuple[dict, ...] = tuple({} for _ in SIDE_LABELS)
    for idx, h in enumerate(entries):
        for index, (near, far) in zip(by_side, SIDE_LABELS):
            index.setdefault((h[near], h[far]), []).append(idx)
    return entries, by_side


def _tree_order(tri: Triangulation) -> list[str]:
    """Breadth-first over shared interior edges in edge-id order, from the
    least triangle id: the order depends on the triangulation's content, not
    on how its lists are ordered."""
    if not tri.triangles:
        return []
    neighbors: dict[str, list[str]] = {t: [] for t in tri.triangles}
    for rec in map(tri.edge, tri.slot0):
        if rec.attach1 is not None:
            t0, t1 = rec.attach0[0], rec.attach1[0]
            if t0 == t1:
                raise InvalidTriangulation(
                    f"edge {rec.id!r} glues a triangle to itself; sampling needs "
                    "flippable-or-boundary edges"
                )
            neighbors[tri.cell(rec, t0)].append(t1)
            neighbors[tri.cell(rec, t1)].append(t0)
    order, seen = [], set()
    queue = deque([min(tri.triangles)])
    while queue:
        t = queue.popleft()
        if t in seen:
            continue
        seen.add(t)
        order.append(t)
        queue.extend(n for n in neighbors[t] if n not in seen)
    if len(order) < len(tri.triangles):  # the walk missed a triangle
        raise InvalidTriangulation("triangulation is not connected")
    return order


def sample_hive(tri: Triangulation, bound: int, seed: int) -> HiveValues:
    """A valid hive, deterministic in (triangulation, bound, seed)."""
    thirds = sample_thirds(tri, bound, seed)
    return {v: Third(x) for v, x in zip(tri.theta_index(), thirds) if x is not None}


def sample_thirds(tri: Triangulation, bound: int, seed: int) -> HiveThirds:
    """The hive of :func:`sample_hive` as :data:`HiveThirds`: None only at
    vertices of edges that no triangle of the tree holds."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    entries, by_side = _box(bound)
    rng = random.Random(seed)
    thirds: HiveThirds = [None] * len(tri.keys)
    for t in _tree_order(tri):
        frame = tri.frame(t)
        pools = []  # candidates allowed by each side whose values are fixed
        for index, (near, far) in zip(by_side, SIDE_LABELS):
            pair = (thirds[frame[near]], thirds[frame[far]])
            if None not in pair:
                pools.append(index.get(pair, []))
        if not pools:
            candidates = range(len(entries))
        elif len(pools) == 1:
            candidates = pools[0]  # indexes are listed in increasing order
        else:
            candidates = sorted(set(pools[0]).intersection(*pools[1:]))
        if not candidates:
            raise SamplingFailed(
                f"no box coordinates fit the fixed edges of triangle {t!r}"
            )
        h = entries[candidates[rng.randrange(len(candidates))]]
        for p, value in zip(frame, h):
            if thirds[p] is not None and thirds[p] != value:
                raise SamplingFailed(
                    f"internal inconsistency writing {tri.keys[p]}"
                )
            thirds[p] = value
    return thirds
