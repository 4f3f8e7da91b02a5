"""Seeded input generator for the benchmark workloads.

Everything here is plain Python with no import of ``hiveweb``: the library
only ever sees what this module produces.  :func:`flip_targets` is an
independent reference for the flip, so the benchmark can check the library's
flips against it.
"""

from __future__ import annotations

import random


def random_polygon_diagonals(m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Diagonals of a random triangulation of the convex m-gon 0..m-1.

    Recursive split: the triangle on base (lo, hi) takes a uniformly random
    apex k in (lo, hi), then both sub-polygons are split the same way.  Unlike
    a fan, this spreads the triangles over all vertices and gives dual trees
    of logarithmic expected depth.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    diags = []
    stack = [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        k = rng.randint(lo + 1, hi - 1)
        for a, b in ((lo, k), (k, hi)):
            if b - a >= 2:
                diags.append((a, b))
                stack.append((a, b))
    return sorted(diags)


def edge_id(a: int, b: int) -> str:
    """Canonical id the library gives the chord {a, b} of a polygon."""
    return f"{min(a, b)}-{max(a, b)}"


def flip_targets(m: int, diagonals) -> dict[str, str]:
    """For each diagonal of a triangulated convex m-gon, the id of the chord
    it flips to: the one joining the far corners of its two triangles.  Of
    the common neighbours of a < b, exactly one lies strictly between them
    and one outside [a, b]."""
    adj = {v: {(v - 1) % m, (v + 1) % m} for v in range(m)}
    for a, b in diagonals:
        adj[a].add(b)
        adj[b].add(a)
    targets = {}
    for a, b in diagonals:
        common = adj[a] & adj[b]
        (inside,) = [w for w in common if a < w < b]
        (outside,) = [w for w in common if not a <= w <= b]
        targets[edge_id(a, b)] = edge_id(inside, outside)
    return targets


def oracle_coords(rng: random.Random, max_x: int, max_corner: int):
    """Endless stream of triangle web coordinates (x, y, z, t, u, v, w).

    x walks through seeded permutations of [-max_x, max_x], so every run sees
    each mesh size equally often and the cost mix does not drift with the
    seed; the six corner counts are uniform in [0, max_corner].
    """
    xs = list(range(-max_x, max_x + 1))
    while True:
        rng.shuffle(xs)
        for x in xs:
            yield (x, *(rng.randint(0, max_corner) for _ in range(6)))


def omega_nonempty(a, b, c) -> bool:
    """Whether the Fermat minimizer region of corners a (lower-left), b
    (lower-right), c (upper) has an integer point: a1 <= x <= b1,
    a2 <= y <= c2 and b2 - b1 <= y - x <= c2 - c1."""
    xlo, xhi, ylo, yhi = a[0], b[0], a[1], c[1]
    dlo, dhi = b[1] - b[0], c[1] - c[0]
    if xlo > xhi or ylo > yhi or dlo > dhi:
        return False
    return dlo <= yhi - xlo and dhi >= ylo - xhi


def fermat_closed_form(a, b, c) -> int:
    """The tripod minimum in thirds when the minimizer region is nonempty."""
    return -a[0] - a[1] + 2 * b[0] - b[1] - c[0] + 2 * c[1]


def fermat_triples(rng: random.Random, radii: range):
    """Endless stream of (a, b, c, r): window radius r walks through seeded
    permutations of ``radii``; the corners lie in [-r, r]^2 and are redrawn
    until their minimizer region is nonempty."""
    rs = list(radii)
    while True:
        rng.shuffle(rs)
        for r in rs:
            while True:
                a, b, c = (
                    (rng.randint(-r, r), rng.randint(-r, r)) for _ in range(3)
                )
                if omega_nonempty(a, b, c):
                    break
            yield a, b, c, r
