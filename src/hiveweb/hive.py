"""Hives on triangulated surfaces.

A hive assigns a value in (1/3)Z to every quiver vertex so that within each
triangle the nine rhombus quantities

    a1+a2-a4   a3+a4-a1-a6   a4+a5-a2-a7
    a5+a7-a4   a2+a4-a1-a5   a4+a6-a3-a7
    a3+a6-a4   a4+a7-a5-a6   a1+a4-a2-a3

are non-negative integers.  The per-triangle labels are read off a fixed
frame, the table ``surface.LAYOUT``: a4 at the center, a2/a5 on side 0 near corners
0/1, a7/a6 on side 1 near corners 1/2, and a3/a1 on side 2 near corners 2/0.
The three-term quantities then pair the two edge vertices flanking each
corner ((a1,a2) at corner 0, (a5,a7) at corner 1, (a3,a6) at corner 2), and
the whole list is invariant under rotating which corner is called 0.
A surface hive is tested whole: :func:`rhombus_quantities` maps
:func:`rhombi` over the columns a1..a7 of the triangles' frames, and
:func:`sound` asks that every minimum be >= 0 and no quantity leave a
residue mod 3; violations are worded triangle by triangle only when it fails.

Across a diagonal flip, hives are transported by the max-plus octahedron
relations, by key: the quadrilateral frame is the tuple of its twelve vertex
keys a1..a12, and the four new values land on its four inner slots.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import itemgetter, mod

from .errors import IncompleteHive, InvalidHive, MalformedInput
from .surface import ThetaVertex, Triangulation
from .thirds import _shown, int_cap, json_text, quoted, read_object, read_thirds

HiveThirds = list[int | None]  # thirds by quiver-vertex position, None where missing
_LABELS = tuple(f"a{i}" for i in range(1, 8))


def rhombi(a1: int, a2: int, a3: int, a4: int, a5: int, a6: int, a7: int) -> tuple[int, ...]:
    """The nine rhombus quantities, in thirds, in the canonical listing order."""
    return (a1 + a2 - a4, a3 + a4 - a1 - a6, a4 + a5 - a2 - a7,
            a5 + a7 - a4, a2 + a4 - a1 - a5, a4 + a6 - a3 - a7,
            a3 + a6 - a4, a4 + a7 - a5 - a6, a1 + a4 - a2 - a3)


def failed_rhombi(quantities) -> list[tuple[int, int]]:
    """(rhombus index from 1, thirds) of each quantity that is not a
    non-negative integer: the predicate that words violations, which
    :func:`sound` tests on a whole hive at once."""
    return [(i, d) for i, d in enumerate(quantities, start=1) if d < 0 or d % 3]


def hive_thirds(tri: Triangulation, values: dict[str, int] | HiveThirds) -> list[int]:
    """``values`` as :data:`HiveThirds` (a list is taken to be that already;
    a dict of thirds by vertex key is read at ``tri.keys``) once every vertex
    has a value: the one completeness check, which names the first vertex
    without one by position."""
    if not isinstance(values, list):
        values = list(map(values.get, tri.keys))
    if None in values:
        raise IncompleteHive(f"no value for vertex {_shown(tri.keys[values.index(None)])}")
    return values


def rhombus_quantities(tri: Triangulation, values: dict[str, int] | HiveThirds) -> list:
    """Each triangle's nine rhombus quantities, in triangle order, once the
    hive is complete and :meth:`~hiveweb.surface.Triangulation.check`
    passes: the one rhombus kernel, which maps :func:`rhombi` over the
    columns a1..a7 of the triangles' frames."""
    thirds, frames = hive_thirds(tri, values), tri.check()
    columns = zip(*map(frames.__getitem__, tri.triangles))  # none without a triangle
    return list(map(rhombi, *(map(thirds.__getitem__, col) for col in columns))) if frames else []


def sound(quantities: list[tuple[int, ...]]) -> bool:
    """Whether every one of ``quantities`` is a non-negative integer, tested
    on the whole hive at once: every minimum >= 0 and no residue mod 3."""
    flat = [*chain.from_iterable(quantities)]
    return min(flat, default=0) >= 0 and not any(map(mod, flat, repeat(3)))


def validate_hive(tri: Triangulation, values: dict[str, int] | HiveThirds) -> list[dict]:
    """All rhombus violations, each naming (triangle, rhombus index, value),
    in (triangle, rhombus) order: worded only when the hive is not sound."""
    quantities = rhombus_quantities(tri, values)
    return [] if sound(quantities) else [
        {"triangle": t, "rhombus": index, "thirds": value}
        for t, q in zip(tri.triangles, quantities) for index, value in failed_rhombi(q)]


def tropical_potential(tri: Triangulation, values: HiveThirds) -> int:
    """Max over all triangles and rhombi of minus the rhombus quantity, in thirds."""
    quantities = rhombus_quantities(tri, values)
    if not quantities:
        raise InvalidHive("triangulation has no triangles")
    return -min(chain.from_iterable(quantities))


def is_in_positive_cone(tri: Triangulation, values: HiveThirds) -> bool:
    """True iff every rhombus quantity is a non-negative integer; agrees with
    validate_hive returning no violations."""
    return sound(rhombus_quantities(tri, values))


def octahedron_thirds(a1: int, a2: int, a3: int, a4: int, a5: int, a6: int, a7: int, a8: int,
                      a9: int, a10: int, a11: int, a12: int) -> tuple[int, ...]:
    """The max-plus octahedron move on a quadrilateral frame, in thirds: the
    twelve post-flip values, b2 and b6 computed first, then b5 and b7 which
    reference them; the other eight carry over."""
    b2 = max(a1 + a7, a5 + a3) - a2
    b6 = max(a5 + a11, a7 + a10) - a6
    b5 = max(a4 + b6, a9 + b2) - a5
    b7 = max(b2 + a12, a8 + b6) - a7
    return a1, b2, a3, a4, b5, b6, b7, a8, a9, a10, a11, a12


def octahedron_transport(values: dict[str, int], frame_old: tuple[str, ...],
                         frame_new: tuple[str, ...]) -> dict[str, int]:
    """Transport a hive, thirds by vertex key, across a diagonal flip by
    :func:`octahedron_thirds` on the frames that
    :func:`~hiveweb.surface.flip_triangulation` returns: the old frame's
    inner keys (a2, a5, a6, a7) are dropped, the new frame's are written last,
    and every other value carries over unchanged."""
    for key in frame_old:
        if key not in values:
            raise InvalidHive(f"hive has no value at frame vertex {_shown(key)}")
    moved = octahedron_thirds(*map(values.__getitem__, frame_old))
    out = dict(values)
    inner = (1, 4, 5, 6)  # a2, a5, a6, a7: the diagonal's vertices and the centers move
    for i in inner:
        del out[frame_old[i]]
    out.update((frame_new[i], moved[i]) for i in inner)
    return out


def triangle_doc(h) -> dict:
    """The triangle hive document ``{"a1": {"thirds": n}, ...}`` of a1..a7 in
    thirds: the one writer of single-triangle hives."""
    return {a: {"thirds": x} for a, x in zip(_LABELS, h)}


def triangle_thirds_from_json(doc: dict) -> tuple[int, ...]:
    """a1..a7 in thirds of the triangle hive document, read label by label."""
    return tuple(read_thirds(read_object(doc, "triangle hive document", a)[a], a)
                 for a in _LABELS)


def hive_doc(pairs, tri: Triangulation | None = None) -> str:
    """The hive document of (key, thirds) pairs as canonical JSON text,
    keeping the last value of a repeated key and skipping missing values,
    with ``tri`` inline when given: the one writer of hive documents."""
    values = ",".join(['%s:{"thirds":%s}' % (quoted(key if type(key) is str else json_text(key)),
                                            x if type(x) is int else json_text(x))
                       for key, x in sorted({key: x for key, x in pairs if x is not None}.items())])
    if tri is None:
        return '{"values":{%s}}' % values
    return '{"triangulation":%s,"values":{%s}}' % (tri.to_text(), values)


def hive_to_json(tri: Triangulation, thirds: HiveThirds, inline: bool = True) -> dict:
    """The hive document :func:`hive_doc` writes of ``thirds`` at the
    positions of ``tri.keys``, parsed."""
    return json.loads(hive_doc(zip(tri.keys, thirds), tri if inline else None))


def hive_thirds_from_json(doc: dict, tri: Triangulation) -> tuple[HiveThirds, dict[str, int]]:
    """The one reader of hive documents: the values, in thirds, at the
    positions of ``tri.keys``, and by key those of the other keys.  The
    document and its ``values`` are objects and each key is a vertex key as
    written (``"e:0-1:0"``, not ``"e:0-1:00"``).  Values at exactly the keys
    of ``tri.keys``, each ``{"thirds": n}`` with n a capped int, are read in
    key order in one pass, without :attr:`~hiveweb.surface.Triangulation.index`;
    any other document goes key by key, reading each value by
    :func:`~hiveweb.thirds.read_thirds` under its checked key, so its first
    fault in document order is worded."""
    keys, cap = tri.keys, int_cap()
    raw = read_object(read_object(doc, "hive document", "values")["values"], "values")
    try:  # the inline test: the values at tri.keys and no others, each {"thirds": a capped int}
        objs = [*map(raw.__getitem__, keys)] if len(raw) == len(keys) else []
        xs = [*map(itemgetter("thirds"), objs)]
        if (set(map(type, objs)) == {dict} and set(map(len, objs)) == {1}
                and set(map(type, xs)) == {int} and -cap <= min(xs) and max(xs) <= cap):
            return xs, {}
    except (KeyError, TypeError):
        pass
    index = tri.index
    values: HiveThirds = [None] * len(index)
    others: dict[str, int] = {}
    for key, obj in raw.items():
        i = index.get(key)
        if i is None:
            try:
                ThetaVertex.parse(key)
            except ValueError:
                raise MalformedInput(f"values: {_shown(key)} is not a vertex key") from None
            others[key] = read_thirds(obj, key)
        else:
            values[i] = read_thirds(obj, key)
    return values, others


def hive_values_from_json(doc: dict) -> dict[str, int]:
    """The document's values in thirds by vertex key, as
    :func:`hive_thirds_from_json` reads them."""
    return hive_thirds_from_json(doc, Triangulation([], []))[1]
