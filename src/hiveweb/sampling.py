"""Deterministic valid-hive generation.

Triangles are visited in spanning-tree order.  Each one takes the web
coordinates of one tuple of the box x in [-K, K], corner counts in [0, K],
chosen by the seeded generator among the tuples whose hive agrees with the
values its sides already hold.  Those candidates are counted and the chosen
one is built from its rank, in the box's order (x, then the corner counts
y, z, t, u, v, w lexicographically); no candidate list is made and nothing is
kept between calls.

A fixed side pins its strand counts A and B (:func:`~hiveweb.web.side_arc_counts`),
each the sum of two corner counts plus x- = max(0, -x) or x+ = max(0, x).
For one x, these sums split the corner counts into components: lone counts,
and paths or a cycle of counts with fixed pairwise sums.  The first count of
a component in y..w order, its lead, ranges over an interval and fixes the
rest, so the candidates with one x are the product of the lead intervals, in
the box's order.  The chosen tuple's counts are solved from its leads and
the pinned sums, and :func:`~hiveweb.web.web_to_hive_thirds` gives its hive.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, repeat
from operator import itemgetter, mul

from .errors import InvalidTriangulation, SamplingFailed
from .hive import HiveThirds
from .surface import Triangulation, _near_far
from .thirds import _shown
from .web import side_arc_counts, web_to_hive_thirds

# the corner counts y, z, t, u, v, w are 0..5; side s pins the sums
# c[i] + c[j] = A - x- and c[k] + c[l] = B - x+ for _STRANDS[s] = ((i, j), (k, l)),
# the counts whose unit web adds one to the side's A, and to its B (at _near_far)
_UNIT_WEBS = [web_to_hive_thirds(0, *(int(i == j) for i in range(6))) for j in range(6)]
_STRANDS = tuple(tuple(tuple(j for j, h in enumerate(_UNIT_WEBS)
                             if side_arc_counts(*_near_far(h, s))[kind])
                       for kind in (0, 1))
                 for s in range(3))


def _no_sums(strands) -> tuple:
    """What a lone count reads of the strand counts: nothing."""
    return ()


def _components(fixed: tuple[int, ...]) -> tuple:
    """The components of the corner counts under the sums that the sides in
    ``fixed`` pin, leads in increasing order, each with a function giving the
    strand counts it reads.  A component is its lead, its walk over the
    other counts ((count, earlier count, sum, sign), ...), its closing sums
    ((count, count, sum), ...) and the parities of the sums it reads.  A
    walked count is its sum less x- or x+ less the earlier count, so it
    moves with the lead by its sign; a sum is named 2s for side s's A and
    2s + 1 for its B."""
    links: list[list] = [[] for _ in range(6)]
    for s in fixed:
        for kind, (i, j) in enumerate(_STRANDS[s]):
            links[i].append((j, 2 * s + kind))
            links[j].append((i, 2 * s + kind))
    signs, used, out = {}, set(), []
    for lead in range(6):
        if lead in signs:
            continue
        signs[lead] = 1
        members, walk, closing, sums = [lead], [], [], []
        for i in members:  # grows as the walk reaches new counts
            for j, e in links[i]:
                if e in used:
                    continue
                used.add(e)
                sums.append(e)
                if j in signs:
                    closing.append((i, j, e))
                else:
                    signs[j] = -signs[i]
                    members.append(j)
                    walk.append((j, i, e, signs[j]))
        component = (lead, tuple(walk), tuple(closing), frozenset(e & 1 for e in sums))
        out.append((component, itemgetter(*sums) if sums else _no_sums))
    return tuple(out)


# by the set of fixed sides as a bit mask, leads in decreasing order
_PLANS = [_components(tuple(s for s in range(3) if mask >> s & 1))[::-1] for mask in range(8)]
# a frame's (near, far) positions of sides 0, 1 and 2, as _near_far reads them
_PINS = itemgetter(*(p for s in range(3) for p in _near_far(range(7), s)))


def _part(component, strands, bound):
    """One component's candidates for each x from -bound to bound: their
    numbers and their least leads."""
    lead, walk, closing, parities = component
    counts, leasts = [], []
    offsets = [0] * 6  # a count is its offset plus its sign times the lead
    for x in range(-bound, bound + 1):
        # x- changes up to x = 0 and x+ after it; a component reads x- through
        # its A sums (even) and x+ through its B sums (odd)
        if counts and (1 if x > 0 else 0) not in parities:
            counts.append(counts[-1])
            leasts.append(leasts[-1])
            continue
        minus, plus = (-x, 0) if x < 0 else (0, x)
        lo, hi = 0, bound
        for j, i, e, sign in walk:
            c = offsets[j] = strands[e] - (plus if e & 1 else minus) - offsets[i]
            if sign > 0:
                lo, hi = max(lo, -c), min(hi, bound - c)
            else:
                lo, hi = max(lo, c - bound), min(hi, c)
        # the sums join counts of opposite signs (the graph is bipartite), so a
        # closing sum holds for every lead or for none
        for i, j, e in closing:
            if offsets[i] + offsets[j] != strands[e] - (plus if e & 1 else minus):
                lo, hi = 1, 0
        counts.append(hi - lo + 1 if hi >= lo else 0)
        leasts.append(lo)
    return counts, leasts


def _candidates(pins, bound, parts):
    """For the pinned side values ``pins`` (near, far for each side, None for
    a free side): the number of candidates before each x from -bound to
    bound and after the last, the strand counts, and the components with
    their parts, leads in decreasing order.  ``parts`` memoizes
    :func:`_part` by its component and the strand counts it reads."""
    mask, strands = 0, [0] * 6
    for s in 0, 1, 2:
        near = pins[2 * s]
        if near is not None:
            mask |= 1 << s
            strands[2 * s], strands[2 * s + 1] = side_arc_counts(near, pins[2 * s + 1])
    counts, drawn = repeat(1), []
    for component, reads in _PLANS[mask]:
        key = (component, reads(strands))
        part = parts.get(key)
        if part is None:
            part = parts[key] = _part(component, strands, bound)
        counts = map(mul, counts, part[0])
        drawn.append((component, part))
    return [0, *accumulate(counts)], strands, drawn


def _tree_order(tri: Triangulation) -> list[str]:
    """Breadth-first over shared interior edges in edge-id order, from the
    least triangle id: the order depends on the triangulation's content, not
    on how its lists are ordered."""
    if not tri.triangles:
        return []
    neighbors: dict[str, list[str]] = {t: [] for t in tri.triangles}
    for rec in tri.edges_by_id():
        if rec.attach1 is not None:
            t0, t1 = rec.attach0[0], rec.attach1[0]
            if t0 == t1:
                raise InvalidTriangulation(
                    f"edge {_shown(rec.id)} glues a triangle to itself; sampling needs "
                    "flippable-or-boundary edges"
                )
            neighbors[t0].append(t1)
            neighbors[t1].append(t0)
    first = min(tri.triangles)
    order, seen = [first], {first}
    for t in order:  # grows as the walk reaches new triangles
        for n in neighbors[t]:
            if n not in seen:
                seen.add(n)
                order.append(n)
    if len(order) < len(tri.triangles):  # the walk missed a triangle
        raise InvalidTriangulation("triangulation is not connected")
    return order


def sample_hive(tri: Triangulation, bound: int, seed: int) -> HiveThirds:
    """A valid hive as complete :data:`HiveThirds`, deterministic in
    (triangulation, bound, seed), once the bound is in range and the
    structural gate passes."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    frames = tri.check()
    rng = random.Random(seed)
    thirds: HiveThirds = [None] * len(tri.keys)
    # what this call has met: candidates by pinned values, parts by their inputs
    seen: dict[tuple, tuple] = {}
    parts: dict[tuple, tuple] = {}
    for t in _tree_order(tri):
        frame = frames[t]
        pins = tuple(map(thirds.__getitem__, _PINS(frame)))
        found = seen.get(pins)
        if found is None:
            found = seen[pins] = _candidates(pins, bound, parts)
        starts, strands, drawn = found
        if not starts[-1]:
            raise SamplingFailed(
                f"no box coordinates fit the fixed edges of triangle {_shown(t)}"
            )
        # candidate r: the place i of its x, then a digit per lead, the last fastest
        r = rng.randrange(starts[-1])
        i = bisect_right(starts, r) - 1
        r -= starts[i]
        x = i - bound
        minus, plus = (-x, 0) if x < 0 else (0, x)
        corners = [0] * 6
        for (lead, walk, _, _), (numbers, leasts) in drawn:
            r, digit = divmod(r, numbers[i])
            corners[lead] = leasts[i] + digit
            for j, k, e, _ in walk:
                corners[j] = strands[e] - (plus if e & 1 else minus) - corners[k]
        for p, value in zip(frame, web_to_hive_thirds(x, *corners)):
            if thirds[p] is not None and thirds[p] != value:
                raise SamplingFailed(f"internal inconsistency writing {_shown(tri.keys[p])}")
            thirds[p] = value
    return thirds
