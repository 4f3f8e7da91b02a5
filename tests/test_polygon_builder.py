"""Differential test of the polygon builder against its pairwise, cubic form.

The reference below is ``build_polygon`` as it was before it became one stack
walk: a pairwise crossing test over all diagonal pairs, a scan of every vertex
triple for faces and a tail table for the attachments.  Every input must give
an identical triangulation (same ``to_json()``, same triangle and edge order,
same attachment tuples) or raise in both, with the same message except that
the crossing error names the crossing differently.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiveweb.errors import InvalidPolygonTriangulation
from hiveweb.surface import EdgeRec, Triangulation, build_polygon


def _chords_cross(a, b):
    if set(a) & set(b):
        return False
    inside = lambda v: a[0] < v < a[1]
    return inside(b[0]) != inside(b[1])


def reference_build_polygon(m, diagonals):
    if not isinstance(m, int) or m < 3:
        raise InvalidPolygonTriangulation(f"need an integer m >= 3, got {m!r}")
    diags = []
    for pair in diagonals:
        a, b = int(pair[0]), int(pair[1])
        if not (0 <= a < m and 0 <= b < m):
            raise InvalidPolygonTriangulation(f"diagonal {pair!r} out of range")
        lo, hi = min(a, b), max(a, b)
        if lo == hi or (hi - lo) % m in (1, m - 1):
            raise InvalidPolygonTriangulation(f"{pair!r} is not a diagonal of the {m}-gon")
        if (lo, hi) in diags:
            raise InvalidPolygonTriangulation(f"duplicate diagonal {pair!r}")
        diags.append((lo, hi))
    if len(diags) != m - 3:
        raise InvalidPolygonTriangulation(
            f"a triangulated {m}-gon needs {m - 3} diagonals, got {len(diags)}"
        )
    for d1, d2 in combinations(diags, 2):
        if _chords_cross(d1, d2):
            raise InvalidPolygonTriangulation(f"diagonals {d1} and {d2} cross")
    diags.sort()

    recs = []
    pair_to_id = {}
    order = []
    for i in range(m):
        j = (i + 1) % m
        eid = f"{min(i, j)}-{max(i, j)}"
        order.append((eid, i, j))
        pair_to_id[frozenset((i, j))] = eid
    for lo, hi in diags:
        eid = f"{lo}-{hi}"
        order.append((eid, lo, hi))
        pair_to_id[frozenset((lo, hi))] = eid

    chords = set(pair_to_id)
    faces = sorted(
        (a, b, c)
        for a, b, c in combinations(range(m), 3)
        if frozenset((a, b)) in chords
        and frozenset((b, c)) in chords
        and frozenset((a, c)) in chords
    )
    if len(faces) != m - 2:
        raise InvalidPolygonTriangulation(
            f"diagonal set yields {len(faces)} triangles, expected {m - 2}"
        )

    attach_fwd = {}
    attach_bwd = {}
    tail_of = {eid: tail for eid, tail, _ in order}
    tri_ids = []
    for corners in faces:
        tid = "-".join(str(v) for v in corners)
        tri_ids.append(tid)
        for s in range(3):
            u, v = corners[s], corners[(s + 1) % 3]
            eid = pair_to_id[frozenset((u, v))]
            if u == tail_of[eid]:
                attach_fwd[eid] = (tid, s)
            else:
                attach_bwd[eid] = (tid, s)
    for eid, tail, head in order:
        if eid not in attach_fwd:
            raise InvalidPolygonTriangulation(f"edge {eid} has no forward attachment")
        recs.append(EdgeRec(eid, tail, head, attach_fwd[eid], attach_bwd.get(eid)))
    return Triangulation(tri_ids, recs, signature=(0, 1, m))


def outcome(build, m, diagonals):
    """What ``build`` makes of the input: the triangulation's data in order, or
    the error raised."""
    try:
        tri = build(m, diagonals)
    except InvalidPolygonTriangulation as exc:
        return "raised", str(exc)
    edges = [(e.id, type(e.tail), e.tail, type(e.head), e.head, e.attach0, e.attach1)
             for e in tri.edges]
    return "built", tri.to_json(), tri.triangles, edges, tri.signature


def assert_same(m, diagonals):
    """Same result as the reference; returns whether the input was accepted."""
    got = outcome(build_polygon, m, list(diagonals))
    want = outcome(reference_build_polygon, m, list(diagonals))
    if want[0] == got[0] == "raised" and want[1].endswith(" cross"):
        assert got[1].startswith("diagonals cross"), got
    else:
        assert got == want
    return got[0] == "built"


def chords(m):
    return [(a, b) for a, b in combinations(range(m), 2) if 2 <= b - a < m - 1]


@pytest.mark.parametrize("m", range(3, 9))
def test_every_subset_of_chords_matches_the_reference(m):
    accepted = sum(assert_same(m, subset) for subset in combinations(chords(m), m - 3))
    assert accepted == math.comb(2 * (m - 2), m - 2) // (m - 1)  # Catalan number C(m-2)


def random_diagonals(m, rng):
    """Diagonals of a random triangulation of the m-gon, by recursive split."""
    diags, todo = [], [(0, m - 1)]
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        k = rng.randint(lo + 1, hi - 1)
        for a, b in ((lo, k), (k, hi)):
            if b - a >= 2:
                diags.append((a, b))
                todo.append((a, b))
    return diags


@st.composite
def polygon_inputs(draw):
    m = draw(st.integers(3, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    diags = random_diagonals(m, rng)
    vertex = st.integers(-1, m)
    mutation = draw(st.sampled_from(
        ("none", "drop", "add", "replace", "duplicate", "random")))
    if mutation == "drop" and diags:
        diags.pop(rng.randrange(len(diags)))
    elif mutation == "add":
        diags.append((draw(vertex), draw(vertex)))
    elif mutation == "replace" and diags:
        diags[rng.randrange(len(diags))] = (draw(vertex), draw(vertex))
    elif mutation == "duplicate" and diags:
        diags.append(diags[rng.randrange(len(diags))])
    elif mutation == "random":
        diags = draw(st.lists(st.tuples(vertex, vertex), max_size=m))
    rng.shuffle(diags)
    if draw(st.booleans()):
        diags = [(b, a) for a, b in reversed(diags)]
    return m, diags


@settings(max_examples=300, deadline=None)
@given(polygon_inputs())
def test_random_and_mutated_diagonals_match_the_reference(case):
    m, diagonals = case
    assert_same(m, diagonals)


def test_crossing_diagonals_name_the_chord_where_the_walk_stopped():
    with pytest.raises(InvalidPolygonTriangulation, match=r"^diagonals cross at chord \(1, 3\)$"):
        build_polygon(5, [(0, 2), (1, 3)])


def test_building_800_gon_takes_under_a_second():
    diagonals = random_diagonals(800, random.Random(800))
    start = time.perf_counter()
    tri = build_polygon(800, diagonals)
    assert time.perf_counter() - start < 1.0
    assert len(tri.triangles) == 798 and len(tri.edges) == 800 + 797
