"""Acceptance suite.

One test per exit criterion, each asserting exact values at the stated
tolerance and its wall-clock budget, and printing a single pass/fail line
(visible with ``pytest -s`` or in failure output).
"""

import random
import time
from itertools import product

import pytest

from hiveweb.errors import GluingMismatch
from hiveweb.hive import (
    octahedron_transport,
    rhombi,
    is_in_positive_cone,
    tropical_potential,
    validate_hive,
)
from hiveweb.metric import (
    distances_from,
    fermat_brute,
    fermat_closed_form,
    gamma_distance,
    gamma_window,
    omega_points,
)
from hiveweb.sampling import sample_hive
from hiveweb.surface import build_polygon, flip_triangulation
from hiveweb.surfacoid import oracle_triangle_hive
from hiveweb.web import (
    hive_to_surface_web,
    hive_to_web_triangle,
    surface_web_thirds,
    web_to_hive_thirds,
)


def checked(name, budget_s):
    """Context manager asserting the budget and printing the summary line."""

    class _Ctx:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            if exc_type is not None:
                print(f"[acceptance] {name}: FAIL after {elapsed:.3f}s")
                return False
            print(f"[acceptance] {name}: PASS ({elapsed:.3f}s, budget {budget_s}s)")
            assert elapsed < budget_s, f"{name}: {elapsed:.3f}s over budget {budget_s}s"
            return False

    return _Ctx()


def transport_along(tri, values, edges):
    """The flips of ``edges`` in turn, and the hive ``values``, thirds by
    position, moved across each."""
    for edge_id in edges:
        flipped, frame_old, frame_new, _ = flip_triangulation(tri, edge_id)
        moved = octahedron_transport(dict(zip(tri.keys, values)), frame_old, frame_new)
        tri, values = flipped, [moved[key] for key in flipped.keys]
    return tri, values


def test_criterion_1_figure_instance():
    coords = (3, 2, 1, 1, 1, 1, 1)
    web_to_hive_thirds(*coords)  # warm any lazy setup before timing
    with checked("1 figure-instance", 0.001):
        hive = web_to_hive_thirds(*coords)
        diffs = rhombi(*hive)
        back = hive_to_web_triangle(hive)
        assert hive == (12, 10, 9, 19, 14, 13, 11)
        # the w, u, y rhombi are the 1st, 7th and 4th listed quantities, in thirds
        assert (diffs[0], diffs[6], diffs[3]) == (3, 3, 6)
        assert back[0] == 3 and back == coords


def test_criterion_2_triangle_bijection_exhaustive():
    with checked("2 triangle-bijection (36864 cases)", 5.0):
        count = 0
        for x in range(-4, 5):
            for rest in product(range(4), repeat=6):
                coords = (x, *rest)
                hive = web_to_hive_thirds(*coords)
                assert all(d >= 0 and d % 3 == 0 for d in rhombi(*hive)), coords
                assert hive_to_web_triangle(hive) == coords
                count += 1
        assert count == 9 * 4**6


def test_criterion_3_oracle_equivalence():
    with checked("3 oracle-equivalence (1000 nets)", 60.0):
        rng = random.Random(33550336)
        for _ in range(1000):
            coords = (rng.randint(-3, 3), *(rng.randint(0, 2) for _ in range(6)))
            assert oracle_triangle_hive(coords) == web_to_hive_thirds(*coords), coords


def test_criterion_4_gamma_closed_form():
    with checked("4 gamma-closed-form (169 points)", 5.0):
        by_radius = {}
        for x in range(-6, 7):
            for y in range(-6, 7):
                radius = abs(x) + abs(y) + 2
                for r in (radius, radius + 3):
                    if r not in by_radius:
                        by_radius[r] = distances_from(gamma_window(r), "0,0")
                expected = gamma_distance(x, y)
                key = f"{x},{y}"
                assert by_radius[radius][key] == expected, (x, y)
                assert by_radius[radius + 3][key] == expected, (x, y)


def test_criterion_5_fermat():
    with checked("5 fermat (200 triples)", 30.0):
        rng = random.Random(8128)
        window = gamma_window(12)
        done = 0
        while done < 200:
            pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3)]
            region = omega_points(*pts, 12)
            if not region:
                continue
            value = fermat_closed_form(*pts)
            brute, argmin = fermat_brute(window, *(f"{x},{y}" for x, y in pts))
            assert brute == value, pts
            assert argmin == {f"{x},{y}" for x, y in region}, pts
            done += 1


def test_criterion_6_octahedron_suite():
    with checked("6 octahedron-suite (quad 1000 / pentagon 500 / hexagon 200)", 60.0):
        quad = build_polygon(4, [(0, 2)])
        for seed in range(1000):
            values = sample_hive(quad, 3, seed)
            assert validate_hive(quad, values) == []
            t1, fo, fn, new_edge = flip_triangulation(quad, "0-2")
            moved = octahedron_transport(dict(zip(quad.keys, values)), fo, fn)
            moved = [moved[key] for key in t1.keys]
            assert validate_hive(t1, moved) == []
            t2, back = transport_along(t1, moved, [new_edge])
            assert t2 == quad and back == values

        pentagon = build_polygon(5, [(0, 2), (0, 3)])
        five_cycle = ["0-2", "0-3", "1-3", "1-4", "2-4"]
        for seed in range(500):
            values = sample_hive(pentagon, 2, seed)
            t5, h5 = transport_along(pentagon, values, five_cycle)
            assert t5 == pentagon and h5 == values
            ta, ha = transport_along(pentagon, values, ["0-2", "0-3"])
            tb, hb = transport_along(pentagon, values, ["0-3", "0-2", "2-4"])
            assert ta == tb and ha == hb

        hexagon = build_polygon(6, [(0, 2), (0, 3), (3, 5)])
        for seed in range(200):
            values = sample_hive(hexagon, 2, seed)
            ta, ha = transport_along(hexagon, values, ["0-2", "3-5"])
            tb, hb = transport_along(hexagon, values, ["3-5", "0-2"])
            assert ta == tb and ha == hb


def test_criterion_7_cone_equivalence():
    with checked("7 cone-equivalence (1000 assignments)", 5.0):
        quad = build_polygon(4, [(0, 2)])
        rng = random.Random(496)
        for case in range(1000):
            values = sample_hive(quad, 2, seed=case)
            if case % 2:  # corrupt half of them
                for _ in range(rng.randint(1, 3)):
                    values[rng.randrange(len(values))] = rng.randint(-5, 5)
            valid = validate_hive(quad, values) == []
            cone = is_in_positive_cone(quad, values)
            integral = all(
                d % 3 == 0
                for t in quad.triangles
                for d in rhombi(*(values[p] for p in quad.frame(t)))
            )
            nonpositive = tropical_potential(quad, values) <= 0
            assert valid == cone == (nonpositive and integral), case


def test_criterion_8_surface_round_trip():
    with checked("8 surface-round-trip (500 + 500 hives)", 30.0):
        for tri, bound in (
            (build_polygon(4, [(0, 2)]), 3),
            (build_polygon(5, [(0, 2), (0, 3)]), 2),
        ):
            for seed in range(500):
                values = sample_hive(tri, bound, seed)
                web = hive_to_surface_web(tri, values)
                assert surface_web_thirds(tri, web) == values
            # corrupting one triangle's strand counts must fail to glue
            web = hive_to_surface_web(tri, sample_hive(tri, bound, 0))
            interior = next(e.id for e in tri.edges if e.attach1 is not None)
            victim = tri.edge(interior).attach0[0]
            x, *corners = web[victim]
            web[victim] = (x + 1, *corners)
            with pytest.raises(GluingMismatch):
                surface_web_thirds(tri, web)


def test_criterion_9_counting_invariants():
    with checked("9 counting-invariants (m in 3..12)", 1.0):
        for m in range(3, 13):
            fan = [(0, j) for j in range(2, m - 1)]
            tri = build_polygon(m, fan)
            assert len(tri.triangles) == m - 2
            assert len(tri.edges) == 2 * m - 3
            assert len(tri.keys) == 2 * (2 * m - 3) + (m - 2)
