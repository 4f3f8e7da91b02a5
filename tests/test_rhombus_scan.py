"""The compiled rhombus scan against a slow reference built from frames.

``validate_hive``, ``tropical_potential`` and ``is_in_positive_cone`` run on
int lists over a triangulation's compiled view; the reference reads every
triangle through ``triangle_frame`` and ``rhombus_differences`` on ``Third``
values.  They must agree on sampled hives, on single-vertex perturbations of
them and on the same hives after random flips.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hiveweb.hive import (
    TriangleHive,
    hive_thirds,
    is_in_positive_cone,
    octahedron_transport,
    rhombus_differences,
    triangle_frame,
    tropical_potential,
    validate_hive,
)
from hiveweb.sampling import sample_hive
from hiveweb.surface import build_polygon, flip_triangulation
from hiveweb.thirds import Third


def random_diagonals(m, rng):
    diags, stack = [], [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo >= 2:
            k = rng.randint(lo + 1, hi - 1)
            for a, b in ((lo, k), (k, hi)):
                if b - a >= 2:
                    diags.append((a, b))
                    stack.append((a, b))
    return diags


def reference(tri, values):
    """(violations, potential, in cone) one Third at a time."""
    violations, worst = [], None
    for t in tri.triangles:
        frame = triangle_frame(tri, t)
        h = TriangleHive(*(values[v] for v in frame))
        for index, d in enumerate(rhombus_differences(h), start=1):
            if d.thirds < 0 or not d.is_integer():
                violations.append({"triangle": t, "rhombus": index, "thirds": d.thirds})
            worst = -d.thirds if worst is None else max(worst, -d.thirds)
    return violations, Third(worst), not violations


def assert_agrees(tri, values):
    violations, potential, cone = reference(tri, values)
    for form in (values, hive_thirds(tri, values)):
        assert validate_hive(tri, form) == violations
        assert tropical_potential(tri, form) == potential
        assert is_in_positive_cone(tri, form) is cone


def perturbed(tri, values, data):
    vertex = data.draw(st.sampled_from(tri.theta_index()))
    delta = data.draw(st.integers(-4, 4).filter(bool))
    return {**values, vertex: Third(values[vertex].thirds + delta)}


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_scan_agrees_with_reference(data):
    m = data.draw(st.integers(3, 30))
    tri = build_polygon(m, random_diagonals(m, random.Random(data.draw(st.integers(0, 2**32)))))
    values = sample_hive(tri, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 10**6)))
    assert_agrees(tri, values)
    assert_agrees(tri, perturbed(tri, values, data))
    for _ in range(data.draw(st.integers(1, 4))):
        interior = sorted(tri.interior_edges())
        if not interior:
            break
        tri, frame_old, frame_new = flip_triangulation(tri, data.draw(st.sampled_from(interior)))
        values = octahedron_transport(values, frame_old, frame_new)
        assert_agrees(tri, values)
    assert_agrees(tri, perturbed(tri, values, data))
