"""Walk through the triangle-level dictionary between webs and hives.

A reduced web on a triangle is a tuple (x, y, z, t, u, v, w): a signed
honeycomb and six corner-arc counts.  Its hive coordinates come from
closed-form max-plus expressions, and independently from shortest-path
distances on the web's dual net.  This script runs both routes side by side.
"""

from hiveweb import (
    build_net,
    hive_to_web_triangle,
    oracle_triangle_hive,
    rhombi,
    web_to_hive_thirds,
)

coords = (3, 2, 1, 1, 1, 1, 1)  # x, y, z, t, u, v, w
print(f"web coordinates        : {coords}")

hive = web_to_hive_thirds(*coords)
print(f"hive (thirds)          : {hive}")

diffs = [d // 3 for d in rhombi(*hive)]
print(f"rhombus quantities     : {diffs}   (all non-negative integers)")

back = hive_to_web_triangle(hive)
print(f"inverse formulas give  : {back}")
assert back == coords

graph, _ = build_net(coords)
# each mesh arc lies on one of the mesh's n(n+1)/2 oriented 3-cycles, and
# each string vertex sends one arc
n = abs(coords[0])
arcs = 3 * n * (n + 1) // 2 + sum(coords[1:])
print(f"dual net               : {len(graph.vertices)} vertices, {arcs} arcs")
oracle = oracle_triangle_hive(coords)
print(f"oracle hive (distances): {oracle}")
assert oracle == hive

# the reversed honeycomb exercises the mirror-orientation branch
reversed_coords = (-2, 0, 1, 0, 2, 0, 0)
assert oracle_triangle_hive(reversed_coords) == web_to_hive_thirds(*reversed_coords)
print(f"reversed honeycomb     : {reversed_coords} agrees on both routes")
