"""The flip as four tropical mutations of the Fock–Goncharov quiver.

A reference for ``hive.octahedron_transport`` that shares none of its
formulas.  The SL3 quiver of a triangulation is built from ``surface.LAYOUT``
alone, its exchange matrix stored doubled (E = 2ε) so that every entry is an
int.  In each triangle with frame f and center c, each side s, whose vertices
near corners s and s+1 carry the labels ``near`` and ``far``, adds

- the half-arrow f[near] → f[far] with E = 1 (the two half-arrows of an
  interior edge cancel),
- the arrows f[far] → c and c → f[near] with E = 2 each,
- the corner arrow from the vertex of side s+1 near corner s+1 to f[far],
  with E = 2.

A flip is the tropical A-mutation at the old frame's a2, a6, a5 and a7, in
that order: at k,

    x'_k = max(Σ_{E_kj > 0} E_kj·x_j, Σ_{E_kj < 0} −E_kj·x_j) / 2 − x_k,
    E'_ij = −E_ij if i or j is k, else E_ij + (|E_ik|·E_kj + E_ik·|E_kj|) / 4,

both exact in ints.  Along a walk of flips, the mutated values must be the
transported hive, and the mutated matrix, relabelled from the old frame to
the new one, must be the quiver of the flipped triangulation.

The same walk checks the X side.  With ε = E/2, p(a)_i = Σ_j ε_ij·a_j, and
the tropical X-mutation at k is

    p'_k = −p_k,    p'_i = p_i − ε_ik·max(0, −sgn(ε_ik)·p_k) for i ≠ k,

both kept as 4p = 2E·a, exact in ints.  After each of the four mutations,
the X-mutated p(a) must be p of the A-mutated values over the mutated
matrix; relabelled to the new frame, it must be p, over the flipped
triangulation's quiver, of the transported hive.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from hiveweb.hive import octahedron_transport
from hiveweb.sampling import sample_hive
from hiveweb.surface import LAYOUT, build_polygon, flip_triangulation

A2, A5, A6, A7 = 1, 4, 5, 6  # the inner slots of a frame a1..a12, a1 at 0
CENTER = LAYOUT.index(None)
SIDES = tuple((LAYOUT.index((s, True)), LAYOUT.index((s, False))) for s in range(3))


def quiver(tri) -> dict:
    """The doubled exchange matrix of ``tri``'s quiver, {(i, j): E_ij} over
    vertex keys, zero entries left out."""
    matrix = Counter()

    def arrow(i, j, e):
        matrix[i, j] += e
        matrix[j, i] -= e

    for t in tri.triangles:
        f = [tri.keys[p] for p in tri.frame(t)]
        for s, (near, far) in enumerate(SIDES):
            arrow(f[near], f[far], 1)
            arrow(f[far], f[CENTER], 2)
            arrow(f[CENTER], f[near], 2)
            arrow(f[SIDES[(s + 1) % 3][0]], f[far], 2)
    return {ij: e for ij, e in matrix.items() if e}


def mutate(matrix: dict, x: dict, k) -> tuple[dict, dict]:
    """The tropical A-mutation of ``matrix`` and the values ``x`` at ``k``."""
    row = {j: e for (i, j), e in matrix.items() if i == k}
    top = max(sum(e * x[j] for j, e in row.items() if e > 0),
              sum(-e * x[j] for j, e in row.items() if e < 0))
    assert top % 2 == 0
    mutated = Counter({(i, j): -e if k in (i, j) else e for (i, j), e in matrix.items()})
    for i, e_ik in ((i, e) for (i, j), e in matrix.items() if j == k):
        for j, e_kj in row.items():
            change = abs(e_ik) * e_kj + e_ik * abs(e_kj)
            assert change % 4 == 0
            mutated[i, j] += change // 4
    return {ij: e for ij, e in mutated.items() if e}, {**x, k: top // 2 - x[k]}


def tropical_p(matrix: dict, a: dict) -> dict:
    """4·p(a), p(a)_i = Σ_j ε_ij·a_j, at every vertex of ``a``."""
    p = dict.fromkeys(a, 0)
    for (i, j), e in matrix.items():
        p[i] += 2 * e * a[j]
    return p


def mutate_x(matrix: dict, p: dict, k) -> dict:
    """The tropical X-mutation at ``k`` over ``matrix`` of ``p``, given and
    returned as 4p."""
    mutated = {**p, k: -p[k]}
    for (i, j), e in matrix.items():
        if j == k:
            change = e * max(0, -p[k] if e > 0 else p[k])
            assert change % 2 == 0
            mutated[i] -= change // 2
    return mutated


@st.composite
def flip_walks(draw):
    """A triangulated m-gon split recursively at drawn apexes, a sampled hive
    on it and the edge picks of a walk."""
    m = draw(st.integers(4, 10))
    diagonals, stack = [], [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo >= 2:
            k = draw(st.integers(lo + 1, hi - 1))
            for a, b in ((lo, k), (k, hi)):
                if b - a >= 2:
                    diagonals.append((a, b))
                    stack.append((a, b))
    tri = build_polygon(m, diagonals)
    thirds = sample_hive(tri, draw(st.integers(1, 3)), draw(st.integers(0, 2**32)))
    return tri, thirds, draw(st.lists(st.integers(0, 20), min_size=1, max_size=6))


@settings(max_examples=40, deadline=None)
@given(flip_walks())
def test_a_flip_is_four_tropical_mutations(case):
    """Each flip is the A-mutations of the values and the X-mutations of
    their p at a2, a6, a5, a7."""
    tri, thirds, picks = case
    x, matrix = dict(zip(tri.keys, thirds)), quiver(tri)
    for pick in picks:
        interior = tri.interior_edges()
        tri, frame_old, frame_new, _ = flip_triangulation(tri, interior[pick % len(interior)])
        moved = octahedron_transport(x, frame_old, frame_new)
        p = tropical_p(matrix, x)
        for k in (frame_old[A2], frame_old[A6], frame_old[A5], frame_old[A7]):
            p = mutate_x(matrix, p, k)
            matrix, x = mutate(matrix, x, k)
            assert p == tropical_p(matrix, x)
        new = dict(zip(frame_old, frame_new))
        x = {new.get(key, key): value for key, value in x.items()}
        matrix = {(new.get(i, i), new.get(j, j)): e for (i, j), e in matrix.items()}
        flipped = quiver(tri)
        assert x == moved
        assert matrix == flipped
        assert {new.get(key, key): value for key, value in p.items()} == tropical_p(
            flipped, moved)
