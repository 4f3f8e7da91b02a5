"""Transport hives across diagonal flips.

Flipping the diagonal of a quadrilateral rebuilds two triangles; the hive
values move by the max-plus octahedron relations.  The transport is an
involution, and on the pentagon the five-flip cycle returns every hive to
itself regardless of which route is taken.  A hive is a list of values in
thirds at the positions of ``tri.keys``; the transport reads and writes them
by key.
"""

from hiveweb import (
    build_polygon,
    flip_triangulation,
    octahedron_transport,
    sample_hive,
    validate_hive,
)


def transport(tri, values, edge_id):
    """The flip of ``edge_id``, the hive moved across it and the new diagonal."""
    flipped, frame_old, frame_new, new_edge = flip_triangulation(tri, edge_id)
    moved = octahedron_transport(dict(zip(tri.keys, values)), frame_old, frame_new)
    return flipped, [moved[key] for key in flipped.keys], new_edge


def transport_along(tri, values, edges):
    for edge_id in edges:
        tri, values, _ = transport(tri, values, edge_id)
    return tri, values


quad = build_polygon(4, [(0, 2)])
values = sample_hive(quad, bound=3, seed=7)
print("quadrilateral hive:")
for key, thirds in zip(quad.keys, values):
    print(f"  {key:8s} = {thirds}/3")

flipped, moved, new_edge = transport(quad, values, "0-2")
print(f"\nflip 0-2 -> {new_edge}; transported hive still valid:",
      validate_hive(flipped, moved) == [])

back_tri, back = transport_along(flipped, moved, [new_edge])
print("flip twice restores the hive exactly:", back_tri == quad and back == values)

pentagon = build_polygon(5, [(0, 2), (0, 3)])
hive = sample_hive(pentagon, bound=2, seed=12)
cycle = ["0-2", "0-3", "1-3", "1-4", "2-4"]
tri5, hive5 = transport_along(pentagon, hive, cycle)
print("\npentagon five-flip cycle is the identity:",
      tri5 == pentagon and hive5 == hive)

ta, ha = transport_along(pentagon, hive, ["0-2", "0-3"])
tb, hb = transport_along(pentagon, hive, ["0-3", "0-2", "2-4"])
print("two flip routes to the same triangulation agree:",
      ta == tb and ha == hb)
