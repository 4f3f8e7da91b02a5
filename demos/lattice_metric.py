"""The asymmetric 1/3-2/3 metric on the lattice graph.

Every vertex of Z^2 sends arcs to (x+1, y), (x, y+1) and (x-1, y-1);
walking an arc forward costs 1/3, backward 2/3.  Distances from the origin
have a three-piece closed form, and the tripod (Fermat) minimum over three
corner points has a closed form attained exactly on a polygonal region.
"""

from hiveweb import (
    fermat_brute,
    fermat_closed_form,
    gamma_distance,
    gamma_window,
    shortest_distance,
)
from hiveweb.metric import omega_points

print("distance from the origin (in thirds), closed form vs Dijkstra:")
window = gamma_window(8)
for x, y in [(2, 1), (-1, 0), (3, 3), (-2, -2), (0, -3)]:
    closed = gamma_distance(x, y)
    measured = shortest_distance(window, "0,0", f"{x},{y}")
    print(f"  d(O, {(x, y)}): {closed}/3  (graph agrees: {closed == measured})")

corners = (0, 0), (2, 0), (0, 2)
value = fermat_closed_form(*corners)
brute, argmin = fermat_brute(gamma_window(6), "0,0", "2,0", "0,2")
region = {f"{x},{y}" for x, y in omega_points(*corners, 6)}
print(f"\ntripod minimum for A=(0,0), B=(2,0), C=(0,2): {value}/3")
print(f"brute force agrees: {brute == value}")
print(f"minimizers = the whole region ({len(region)} points): {argmin == region}")
