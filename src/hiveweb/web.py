"""Reduced-web coordinates per triangle and per surface.

A reduced web on a triangle is a signed honeycomb of size |x| (sign = its
orientation) plus six corner-arc counts: w, v at the top corner (corner 0),
y, z at corner 1 and u, t at corner 2.  The first letter of each pair counts
the arcs crossed at cost 1/3 by the inward tripod leg at that corner.

The hive coordinates of a triangle web are explicit max-plus expressions in
(x, y, z, t, u, v, w), and conversely a valid triangle hive determines the
web coordinates by differences and minima; the two maps are mutually inverse.
A surface web stores one coordinate tuple per triangle; it glues iff for
every interior edge the oriented strand counts computed from both sides
match after swapping.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from operator import itemgetter

from .errors import GluingMismatch, InconsistentSide, InvalidHive, InvalidWebCoords
from .hive import (HiveThirds, failed_rhombi, rhombi, rhombus_quantities, sound,
                   validate_hive)
from .surface import ThetaVertex, Triangulation, _near_far
from .thirds import (Third, _shown, checked_int, int_cap, json_text, quoted, read_object,
                     shown_violations)

WebTuple = tuple[int, ...]  # (x, y, z, t, u, v, w) of one triangle
_XYZTUVW = itemgetter(*"xyztuvw")
_TUVWXYZ = itemgetter(3, 4, 5, 6, 0, 1, 2)  # a 7-tuple's entries in the order of their keys


def _corners_checked(c: WebTuple) -> WebTuple:
    """``c``, once its six corner counts y..w are known to be non-negative."""
    for name, value in zip("yztuvw", c[1:]):
        if value < 0:
            raise InvalidWebCoords(f"corner count {name} is negative")
    return c


SurfaceWeb = dict[str, WebTuple]
HiveValues = dict[ThetaVertex, Third]  # what surface_web_to_hive returns


def web_to_hive_thirds(x: int, y: int, z: int, t: int, u: int, v: int, w: int) -> tuple[int, ...]:
    """Hive coordinates a1..a7 of a triangle web, in thirds:

        3a1 = 2t+u+2w+v+max(2x,-x)      3a2 = 2w+v+2z+y+max(x,-2x)
        3a3 = 2v+w+2u+t+max(x,-2x)      3a4 = 2v+w+2t+u+2z+y+3|x|
        3a5 = 2v+w+2y+z+max(2x,-x)      3a6 = 2z+y+2u+t+max(2x,-x)
        3a7 = 2t+u+2y+z+max(x,-2x)
    """
    lo = max(x, -2 * x)
    hi = max(2 * x, -x)
    return (
        2 * t + u + 2 * w + v + hi,
        2 * w + v + 2 * z + y + lo,
        2 * v + w + 2 * u + t + lo,
        2 * v + w + 2 * t + u + 2 * z + y + 3 * abs(x),
        2 * v + w + 2 * y + z + hi,
        2 * z + y + 2 * u + t + hi,
        2 * t + u + 2 * y + z + lo,
    )


def web_from_rhombi(quantities) -> WebTuple:
    """Web coordinates of a valid triangle hive from its nine rhombus
    quantities, all multiples of three."""
    r1, r2, r3, r4, r5, r6, r7, r8, r9 = (d // 3 for d in quantities)
    return (r3 - r2, r4, min(r5, r6), min(r9, r8), r7, min(r2, r3), r1)


def hive_to_web_triangle(h: Sequence[int]) -> WebTuple:
    """Web coordinates of the valid triangle hive ``h`` = a1..a7 in thirds;
    inverse of :func:`web_to_hive_thirds`."""
    quantities = rhombi(*h)
    bad = failed_rhombi(quantities)
    if bad:
        raise InvalidHive(f"rhombus conditions fail: "
                          f"{shown_violations([{'rhombus': i, 'thirds': d} for i, d in bad])}")
    return web_from_rhombi(quantities)


def side_arc_counts(a_near: int, a_far: int) -> tuple[int, int]:
    """Oriented strand counts (2a_near - a_far, 2a_far - a_near) through a
    side carrying hive values a_near, a_far in thirds."""
    first = 2 * a_near - a_far
    second = 2 * a_far - a_near
    if first % 3 or second % 3:
        raise InconsistentSide(f"thirds {a_near}, {a_far} give non-integer strand counts")
    first, second = first // 3, second // 3
    if first < 0 or second < 0:
        raise InconsistentSide(f"thirds {a_near}, {a_far} give negative strand counts")
    return first, second


def surface_web_thirds(tri: Triangulation, coords: Mapping[str, Sequence[int]]) -> HiveThirds:
    """The surface hive of the web with ``coords[t] = (x, y, z, t, u, v, w)``
    per triangle, as complete :data:`HiveThirds`: once every triangle has
    coordinates and the gate passes, each cell's a1..a7 go to its frame's
    positions, and if two writes of a position differ, the first edge in
    ``tri.edges`` order whose first attachment holds such a position is
    named; it raises what :func:`surface_web_to_hive` raises."""
    for t in tri.triangles:
        if t not in coords:
            raise InvalidWebCoords(f"no coordinates for triangle {_shown(t)}")
    frames = tri.check()
    thirds: HiveThirds = [None] * len(tri.keys)
    marked = set()
    for t in tri.triangles:
        for p, value in zip(frames[t], web_to_hive_thirds(*coords[t])):
            if thirds[p] is not None and thirds[p] != value:
                marked.add(p)
            thirds[p] = value
    for rec in tri.edges if marked else ():
        t0, s0 = rec.attach0
        if marked.intersection(_near_far(frames[t0], s0)):
            v0, v1 = (_near_far(web_to_hive_thirds(*coords[t]), s)
                      for t, s in (rec.attach0, rec.attach1))
            raise GluingMismatch(f"edge {_shown(rec.id)}: side counts "
                                 f"{_shown([*side_arc_counts(*v0)])} and "
                                 f"{_shown([*side_arc_counts(*v1)])} do not glue")
    return thirds


def surface_web_to_hive(tri: Triangulation, web: SurfaceWeb) -> HiveValues:
    """:func:`surface_web_thirds` as a :data:`HiveValues` dict, the form
    that the benchmark's checks read."""
    return dict(zip(map(ThetaVertex.parse, tri.keys), map(Third, surface_web_thirds(tri, web))))


def hive_to_surface_web(tri: Triangulation, values: HiveThirds) -> SurfaceWeb:
    """Per-triangle web coordinates of a valid surface hive, read off the
    rhombus quantities that the soundness test checks."""
    quantities = rhombus_quantities(tri, values)
    if not sound(quantities):
        bad = validate_hive(tri, values)
        raise InvalidHive(f"hive has {len(bad)} rhombus violations: {shown_violations(bad)}")
    return dict(zip(tri.triangles, map(web_from_rhombi, quantities)))


def web_doc(pairs, tri: Triangulation | None = None) -> str:
    """The web document of (triangle, (x, y, z, t, u, v, w)) pairs as
    canonical JSON text, keeping the last tuple of a repeated triangle, with
    ``tri`` inline when given: the one writer of web documents."""
    coords = ",".join(['%s:{"t":%s,"u":%s,"v":%s,"w":%s,"x":%s,"y":%s,"z":%s}' % (
        quoted(t if type(t) is str else json_text(t)),
        *[n if type(n) is int else json_text(n) for n in _TUVWXYZ(c)])
        for t, c in sorted(dict(pairs).items())])
    if tri is None:
        return '{"coords":{%s}}' % coords
    return '{"coords":{%s},"triangulation":%s}' % (coords, tri.to_text())


def surface_web_to_json(tri: Triangulation, web: SurfaceWeb, inline: bool = True) -> dict:
    """The web document :func:`web_doc` writes, parsed."""
    return json.loads(web_doc(web.items(), tri if inline else None))


def surface_web_from_json(doc: dict) -> SurfaceWeb:
    """Every entry of the document's ``coords`` as a 7-tuple, entry by entry:
    the document, its ``coords`` and each entry are objects, each key in
    ``xyztuvw`` order is present and obeys :func:`~hiveweb.thirds.checked_int`,
    then the corner counts must be non-negative."""
    coords = read_object(read_object(doc, "web document", "coords")["coords"], "coords")
    cap, out = int_cap(), {}
    for t, entry in coords.items():
        try:  # the inline test: seven capped ints, the six corner counts not negative
            c = _XYZTUVW(entry)
            fast = set(map(type, c)) == {int} and min(c[1:]) >= 0 and -cap <= c[0] and max(c) <= cap
        except (LookupError, TypeError):
            fast = False
        if not fast:
            what = f"coords of {_shown(t)}"
            c = _corners_checked(tuple(checked_int(read_object(entry, what, k)[k], k)
                                       for k in "xyztuvw"))
        out[t] = c
    return out

