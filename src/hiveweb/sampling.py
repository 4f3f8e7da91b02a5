"""Deterministic valid-hive generation.

Triangles are visited in spanning-tree order.  Each one takes the web
coordinates of one tuple of the box x in [-K, K], corner counts in [0, K],
chosen by the seeded generator among the tuples whose hive agrees with the
values its sides already hold.  Those candidates are counted and the chosen
one is built from its rank, in the box's order (x, then the corner counts
y, z, t, u, v, w lexicographically); no candidate list is made and nothing is
kept between calls.

A fixed side pins its strand counts A = 2a_near - a_far and
B = 2a_far - a_near, each the sum of two corner counts plus x- = max(0, -x)
or x+ = max(0, x).  For one x, these sums split the corner counts into
components: lone counts, and paths or a cycle of counts with fixed pairwise
sums.  The first count of a component in y..w order, its lead, ranges over
an interval and fixes the rest, so the candidates with one x are the product
of the lead intervals, in the box's order.

For one x the hive is linear in the corner counts, so the chosen hive is the
hive of x plus one term per component, each kept as one int that packs the
values a1..a7 in 64 bits apiece.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, repeat
from operator import itemgetter, mul
from struct import Struct

from .errors import InvalidTriangulation, MalformedInput, SamplingFailed
from .hive import HiveThirds
from .surface import SIDE_LABELS, Triangulation
from .web import web_to_hive_thirds

# the corner counts y, z, t, u, v, w are positions 0..5; side s pins the sums
# c[i] + c[j] = A - x- and c[k] + c[l] = B - x+ for _STRANDS[s] = ((i, j), (k, l))
_STRANDS = (((5, 1), (4, 0)), ((2, 0), (1, 3)), ((3, 4), (2, 5)))

# a packed hive holds a1 in its lowest 64 bits, a2 in the next 64 and so on;
# packed hives add as their values do while every value fits its field, and a
# box hive's values are at most 12 * bound thirds
_UNPACK = Struct("<7Q").unpack
MAX_BOUND = ((1 << 64) - 1) // 12


def _packed(hive) -> int:
    return sum(value << 64 * k for k, value in enumerate(hive))


# the packed hive that one unit of each corner count adds
_UNITS = [_packed(web_to_hive_thirds(0, *(int(i == j) for i in range(6)))) for j in range(6)]


def _no_sums(strands) -> tuple:
    """What a lone count reads of the strand counts: nothing."""
    return ()


def _components(fixed: tuple[int, ...]) -> tuple:
    """The components of the corner counts under the sums that the sides in
    ``fixed`` pin, leads in increasing order, each with a function giving the
    strand counts it reads.  A component is its walk over the counts after
    its lead ((packed hive of one unit of the count, place of an earlier
    count, sum, sign), ...), its closing
    sums ((place, place, sum), ...), the packed hive that one more lead adds
    and the parities of the sums it reads.  A place counts the lead and then
    the walk from 0, the count at a place is offset + sign * lead, and a sum
    is named 2s for side s's A and 2s + 1 for its B."""
    links: list[list] = [[] for _ in range(6)]
    for s in fixed:
        for kind, (i, j) in enumerate(_STRANDS[s]):
            links[i].append((j, 2 * s + kind))
            links[j].append((i, 2 * s + kind))
    place, used, out = {}, set(), []
    for lead in range(6):
        if lead in place:
            continue
        members, signs, walk, closing, sums = [lead], [1], [], [], []
        place[lead] = 0
        step = _UNITS[lead]
        for i in members:  # grows as the walk reaches new counts
            for j, e in links[i]:
                if e in used:
                    continue
                used.add(e)
                sums.append(e)
                if j in place:
                    closing.append((place[i], place[j], e))
                else:
                    place[j] = len(members)
                    members.append(j)
                    signs.append(-signs[place[i]])
                    step += signs[-1] * _UNITS[j]
                    walk.append((_UNITS[j], place[i], e, signs[-1]))
        component = (tuple(walk), tuple(closing), step, frozenset(e & 1 for e in sums))
        out.append((component, itemgetter(*sums) if sums else _no_sums))
    return tuple(out)


# by the set of fixed sides as a bit mask, leads in decreasing order
_PLANS = [_components(tuple(s for s in range(3) if mask >> s & 1))[::-1] for mask in range(8)]
# a frame's (near, far) positions of sides 0, 1 and 2
_PINS = itemgetter(*(p for pair in SIDE_LABELS for p in pair))


def _part(component, strands, bound):
    """One component's candidates for each x from -bound to bound: their
    numbers, and each x's (number, packed hive of its least lead, packed hive
    that one more lead adds)."""
    walk, closing, step, parities = component
    counts, entries = [], []
    for x in range(-bound, bound + 1):
        # x- changes up to x = 0 and x+ after it; a component reads x- through
        # its A sums (even) and x+ through its B sums (odd)
        if entries and (1 if x > 0 else 0) not in parities:
            counts.append(counts[-1])
            entries.append(entries[-1])
            continue
        minus, plus = (-x, 0) if x < 0 else (0, x)
        lo, hi, offsets, packed = 0, bound, [0], 0
        for unit, previous, e, sign in walk:
            c = strands[e] - (plus if e & 1 else minus) - offsets[previous]
            offsets.append(c)
            packed += c * unit
            if sign > 0:
                lo, hi = max(lo, -c), min(hi, bound - c)
            else:
                lo, hi = max(lo, c - bound), min(hi, c)
        # the sums join counts of opposite signs (the graph is bipartite), so a
        # closing sum holds for every lead or for none
        for a, b, e in closing:
            if offsets[a] + offsets[b] != strands[e] - (plus if e & 1 else minus):
                lo, hi = 1, 0
        n = hi - lo + 1 if hi >= lo else 0
        counts.append(n)
        entries.append((n, packed + lo * step, step))
    return counts, entries


def _candidates(pins, bound, parts):
    """For the pinned side values ``pins`` (near, far for each side, None for
    a free side): the number of candidates before each x from -bound to
    bound and after the last, and the entries of their components, leads in
    decreasing order.  ``parts`` memoizes :func:`_part` by its component and
    the strand counts it reads."""
    mask, strands = 0, [0] * 6
    for s in 0, 1, 2:
        near = pins[2 * s]
        if near is not None:
            far = pins[2 * s + 1]
            a, b = 2 * near - far, 2 * far - near
            if a % 3 or b % 3:
                return [0], ()
            mask |= 1 << s
            strands[2 * s], strands[2 * s + 1] = a // 3, b // 3
    counts, parts_of = repeat(1), []
    for component, reads in _PLANS[mask]:
        key = (component, reads(strands))
        part = parts.get(key)
        if part is None:
            part = parts[key] = _part(component, strands, bound)
        counts = map(mul, counts, part[0])
        parts_of.append(part[1])
    return [0, *accumulate(counts)], parts_of


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
    if bound > MAX_BOUND:
        raise MalformedInput(f"bound must be at most {MAX_BOUND}")
    frames = tri.check()
    rng = random.Random(seed)
    thirds: HiveThirds = [None] * len(tri.keys)
    x_hives = [_packed(web_to_hive_thirds(x, 0, 0, 0, 0, 0, 0)) for x in range(-bound, bound + 1)]
    # what this call has met: candidates by pinned values, parts by their inputs
    seen: dict[tuple, tuple] = {}
    parts: dict[tuple, tuple] = {}
    for t in _tree_order(tri):
        frame = frames[t]
        pins = tuple(map(thirds.__getitem__, _PINS(frame)))
        found = seen.get(pins)
        if found is None:
            found = seen[pins] = _candidates(pins, bound, parts)
        starts, parts_of = found
        if not starts[-1]:
            raise SamplingFailed(
                f"no box coordinates fit the fixed edges of triangle {t!r}"
            )
        # candidate r: the place i of its x, then a digit per lead, the last fastest
        r = rng.randrange(starts[-1])
        i = bisect_right(starts, r) - 1
        r -= starts[i]
        hive = x_hives[i]
        for entries in parts_of:
            n, least, step = entries[i]
            r, digit = divmod(r, n)
            hive += least + digit * step
        for p, value in zip(frame, _UNPACK(hive.to_bytes(56, "little"))):
            if thirds[p] is not None and thirds[p] != value:
                raise SamplingFailed(
                    f"internal inconsistency writing {tri.keys[p]}"
                )
            thirds[p] = value
    return thirds
