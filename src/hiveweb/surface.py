"""Combinatorial ideal triangulations and the diagonal flip.

A triangulation is a list of triangle ids plus edge records.  Each triangle
has sides 0, 1, 2 listed counterclockwise, side ``s`` running from corner
``s`` to corner ``s+1`` (mod 3).  An edge record stores an orientation
(``tail`` -> ``head``) and its attachments: the first attachment is the
(triangle, side) slot that walks the edge from tail to head along its own
counterclockwise boundary, the second (if any) walks it head to tail.  A
boundary edge has only the first.

Quiver vertices: one at the center of each triangle and two on each edge,
slot 0 nearer the tail; only this module knows their keys and layout.
Triangle and edge ids are plain strings; the polygon builder and the flip
derive them canonically from marked-point labels ("a-b" for an edge,
"a-b-c" for a triangle), which makes triangulations produced along
different flip paths directly comparable.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property

from .errors import (InvalidPolygonTriangulation, InvalidTriangulation, MalformedInput,
                     NotFlippable, SelfFoldedUnsupported)
from .thirds import (_shown, checked_int, int_cap, json_text, quoted, read_array, read_object,
                     shown_violations)

Label = object  # marked-point labels: ints for polygons, ints or strings in JSON
Attach = tuple[str, int]

# a1..a7: (s, True) is the vertex of side s nearer corner s, (s, False) the one
# nearer corner s+1, None the center; CENTER and each side's (near, far) pair
# are label positions, 0 for a1
LAYOUT = ((2, False), (0, True), (2, True), None, (0, False), (1, False), (1, True))
CENTER = LAYOUT.index(None)
SIDE_LABELS = tuple((LAYOUT.index((s, True)), LAYOUT.index((s, False))) for s in range(3))
# side s's (near, far) positions and corners s, s+1; any other value names no side
_SIDES = {s: (near, far, s, (s + 1) % 3) for s, (near, far) in enumerate(SIDE_LABELS)}


def _near_far(h, s: int) -> tuple:
    """Side ``s``'s two of a1..a7 (values or frame positions), near corner s
    first: outside the walk, the one reading of which side carries which pair."""
    near, far = SIDE_LABELS[s % 3]
    return h[near], h[far]


class ThetaVertex(namedtuple("ThetaVertex", "kind ref slot", defaults=(-1,))):
    """A quiver vertex: kind "c" (triangle center) or "e" (edge vertex).  The
    library names vertices by their keys, each read as written; this class
    parses a key and is the vertex of the ``HiveValues`` dict form."""

    __slots__ = ()

    @classmethod
    def center(cls, tri: str) -> ThetaVertex:
        return cls("c", tri)

    @classmethod
    def edge(cls, edge_id: str, slot: int) -> ThetaVertex:
        if slot not in (0, 1):
            raise ValueError(f"slot must be 0 or 1, got {slot}")
        return cls("e", edge_id, slot)

    def key(self) -> str:
        return f"c:{self.ref}" if self.kind == "c" else f"e:{self.ref}:{self.slot}"

    @classmethod
    def parse(cls, key: str) -> ThetaVertex:
        if isinstance(key, str) and key.startswith("c:"):
            return cls.center(key[2:])
        if isinstance(key, str) and key.startswith("e:"):
            ref, slot = key[2:].rsplit(":", 1)
            if slot in ("0", "1"):
                return cls.edge(ref, int(slot))
        raise ValueError(f"bad vertex key {_shown(key)}")


# attach0 walks the edge tail -> head, attach1 head -> tail (None on the boundary)
EdgeRec = namedtuple("EdgeRec", "id tail head attach0 attach1")


def _id(raw, what: str) -> str:
    """A triangle or edge id: a string, or an int read as its decimal text."""
    if type(raw) is str:
        return raw
    if type(raw) is not int:
        raise MalformedInput(f"{what}: expected a string or an integer, got {_shown(raw)}")
    return str(checked_int(raw, what))


def _attach(raw) -> Attach:
    """A ``[triangle, side]`` pair.  A shorter list is refused first; a longer
    one after the reads, so a pair those reads fail on keeps their message."""
    if len(raw) < 2:
        raise MalformedInput(f"attachment {_shown(raw)} is not a [triangle, side] pair")
    t, side = raw[0], checked_int(raw[1], "side")
    attach = _id(t, "triangle id"), side
    if len(raw) != 2:
        raise MalformedInput(
            f"attachment to triangle {_shown(attach[0])}: {len(raw)} entries, expected 2")
    return attach


def _label(raw) -> Label:
    return raw if type(raw) is str else checked_int(raw, "label")


def _read_edge(e, k: int) -> EdgeRec:
    """Entry ``k`` of ``edges`` read field by field, in the order that decides
    which error is raised first; see :meth:`Triangulation.from_json`."""
    raw = read_object(e, f"edges[{k}]", "id", "tail", "head", "attach")["attach"]
    try:
        attach1 = _attach(raw[1]) if len(raw) > 1 and raw[1] != "boundary" else None
        rec = EdgeRec(_id(e["id"], "edge id"), _label(e["tail"]), _label(e["head"]),
                      _attach(raw[0]), attach1)
    except (LookupError, TypeError, MalformedInput):
        # any attach of the wrong shape fails above (a string is read char by char)
        if type(raw) is not list or not raw or type(raw[0]) is not list or (
                len(raw) > 1 and type(raw[1]) is not list and raw[1] != "boundary"):
            raise MalformedInput(f"edge {_shown(_id(e['id'], 'edge id'))}: attach must list a "
                                 '[triangle, side] pair and optionally another or '
                                 '"boundary"') from None
        raise
    if len(raw) > 2:
        raise MalformedInput(
            f"edge {_shown(rec.id)}: attach has {len(raw)} entries, expected 1 or 2")
    return rec


class Triangulation:
    """Immutable-by-convention triangulation; derived lookups are cached."""

    def __init__(self, triangles, edges, signature=None):
        self.triangles: list[str] = list(triangles)
        self.edges: list[EdgeRec] = list(edges)
        self.signature: tuple[int, int, int] | None = (
            tuple(signature) if signature is not None else None)
        self._edge_by_id = {e.id: e for e in self.edges}

    # -- raw lookups ---------------------------------------------------

    def edge(self, edge_id: str) -> EdgeRec:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge {_shown(edge_id)}") from None

    def edges_by_id(self):
        """The edge records, each id once, in edge-id order (``slot0``'s)."""
        return map(self._edge_by_id.__getitem__, self._ids[1])

    # -- derived sets, each built on first read ----------------------------
    # Hive values travel as a list of ints indexed by quiver-vertex positions:
    # centers by triangle id, then slots 0 and 1 of every edge by edge id.

    @cached_property
    def _ids(self) -> tuple[list[str], list[str]]:
        """The distinct triangle ids and edge ids, each sorted: the positions' order."""
        return sorted(dict.fromkeys(self.triangles)), sorted(self._edge_by_id)

    @cached_property
    def slot0(self) -> dict[str, int]:
        """The position of slot 0 of each edge; slot 1 follows it."""
        n, eids = len(self._ids[0]), self._ids[1]
        return dict(zip(eids, range(n, n + 2 * len(eids), 2)))

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """The key of the vertex at each position."""
        keys = [f"c:{t}" for t in self._ids[0]]
        for e in self.slot0:
            keys += (f"e:{e}:0", f"e:{e}:1")
        return tuple(keys)

    def _key(self, p: int) -> str:
        """The key of the vertex at position ``p``, without building :attr:`keys`."""
        tris, eids = self._ids
        at = p - len(tris)
        return f"c:{tris[p]}" if at < 0 else f"e:{eids[at // 2]}:{at % 2}"

    @cached_property
    def index(self) -> dict[str, int]:
        """The position of each key."""
        return dict(zip(self.keys, range(len(self.keys))))

    @cached_property
    def _walk(self) -> tuple[dict[str, tuple[int, ...]] | None, list[dict]]:
        """The positions a1..a7 of every triangle, or None, and the structural
        faults in list order: the one walk over the edges that decides and
        reports the structure.  A repeated id makes positions ambiguous, so
        then it reports only each repeat, at its second listing, triangles
        first.  Else it fills each side's two positions and corner labels,
        edge by edge, and sets aside each attachment to an unlisted triangle,
        to a side outside 0..2 or to a side held already; only when something
        failed does it word, in list order, the first two kinds, then in
        triangle order the sides attached twice or not at all, else the
        corners with two labels; then the signature counts that do not
        hold.  A puncture, a corner label that no boundary edge ends at, adds
        a triangle and an edge to the counts.  A faulty gluing may leave a corner without a
        label or with two, so there only the corners whose two sides are each
        attached once and give one label are read, whatever the edge order."""
        tris, eids = self._ids
        if len(tris) != len(self.triangles) or len(eids) != len(self.edges):
            listed, out = {}, []
            for site in [*(("triangle", t) for t in self.triangles),
                         *(("edge", e.id) for e in self.edges)]:
                listed[site] = listed.get(site, 0) + 1
                if listed[site] == 2:
                    out.append({"kind": "duplicate-id", site[0]: site[1]})
            return None, out
        frames, slot0, n, out = {}, self.slot0, len(tris), []
        for c, t in enumerate(tris):
            frames[t] = frame = [None] * 7
            frame[CENTER] = c
        # at 3c + k: corner k's label in the cell with center c, from side k and
        # side k-1; rim: the two labels of each boundary edge; met: each
        # attachment to an unlisted triangle, a side outside 0..2 or a side held
        starts, ends, rim, met = [None] * (3 * n), [None] * (3 * n), [], []
        for rec in self.edges:
            p, (t, s) = slot0[rec.id], rec.attach0
            try:
                frame, (near, far, k, k_next) = frames[t], _SIDES[s]
                if frame[near] is not None:  # held already
                    raise KeyError
                frame[near], frame[far] = p, p + 1
                c = 3 * frame[CENTER]
                starts[c + k], ends[c + k_next] = rec.tail, rec.head
            except KeyError:
                met.append((rec.id, t, s))
            if rec.attach1 is None:
                rim += rec.tail, rec.head
                continue
            t, s = rec.attach1
            try:
                frame, (near, far, k, k_next) = frames[t], _SIDES[s]
                if frame[near] is not None:  # held already
                    raise KeyError
                frame[near], frame[far] = p + 1, p
                c = 3 * frame[CENTER]
                starts[c + k], ends[c + k_next] = rec.head, rec.tail
            except KeyError:
                met.append((rec.id, t, s))
        if met or 2 * len(self.edges) - len(rim) // 2 != 3 * n:
            doubles = {}
            for eid, t, s in met:
                if t not in frames:
                    out.append({"kind": "unknown-triangle", "edge": eid, "triangle": t})
                elif s not in _SIDES:
                    out.append({"kind": "bad-side-index", "edge": eid, "triangle": t, "side": s})
                else:  # the held position names its first edge
                    doubles.setdefault((t, s), [frames[t][_SIDES[s][0]]]).append(eid)
            for t in self.triangles:
                for s, (near, _) in enumerate(SIDE_LABELS):
                    if (t, s) in doubles:
                        first, *more = doubles[t, s]
                        c = 3 * frames[t][CENTER]  # its labels came from the first-listed edge
                        starts[c + s] = ends[c + (s + 1) % 3] = None
                        out.append({"kind": "double-attached-side", "triangle": t, "side": s,
                                    "edges": [eids[(first - n) // 2], *more]})
                    elif frames[t][near] is None:
                        out.append({"kind": "dangling-side", "triangle": t, "side": s})
        elif starts != ends:
            for t in self.triangles:
                c = 3 * frames[t][CENTER]
                out += [{"kind": "corner-mismatch", "triangle": t, "corner": k,
                         "labels": [starts[c + k], ends[c + k]]}
                        for k in range(3) if starts[c + k] != ends[c + k]]
        if self.signature is not None:
            g, c, m = self.signature
            # the punctures: corner labels off the boundary, read where a
            # corner's two sides give one label (at every corner, when sound)
            labels = (set(starts) if not out else
                      {s for s, e in zip(starts, ends) if s is not None and s == e})
            p = len(labels.difference(rim))
            out += [{"kind": "count-mismatch", "field": name, "have": have, "want": want}
                    for name, have, want in (
                        ("triangles", n, 2 * c + m + p + 4 * g - 4),
                        ("edges", len(self.edges), 3 * c + 2 * m + p + 6 * g - 6))
                    if have != want]
        return None if out else {t: tuple(frame) for t, frame in frames.items()}, out

    def check(self) -> dict[str, tuple[int, ...]]:
        """Every triangle's :meth:`frame` once the walk passes, else
        InvalidTriangulation with the first three violations that the walk
        reports for the lists in canonical order, so the text depends only on
        content: the one structural gate."""
        frames = self._walk[0]
        if frames is None:
            bad = validate_complex(
                Triangulation(sorted(self.triangles), sorted(self.edges, key=lambda r: r.id),
                              self.signature))
            raise InvalidTriangulation(
                f"triangulation has {len(bad)} structural violations: {shown_violations(bad)}")
        return frames

    def frame(self, t: str) -> tuple[int, ...]:
        """Triangle ``t``'s positions in hive-label order a1..a7 (``LAYOUT``)
        once :meth:`check` passes; KeyError if ``t`` is not listed."""
        frames = self.check()
        if t not in frames:
            raise KeyError(f"unknown triangle {_shown(t)}")
        return frames[t]

    # -- value semantics --------------------------------------------------

    def __eq__(self, other):
        """Equal exactly when :meth:`to_text` writes the same document for both."""
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self.to_text() == other.to_text()

    def __repr__(self):
        return f"Triangulation({len(self.triangles)} triangles, {len(self.edges)} edges)"

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """The triangulation document as canonical JSON text, written in one
        pass: triangles sorted, edges by id, each ``{"attach": [[triangle,
        side], [triangle, side] or "boundary"], "head", "id", "tail"}``, and
        ``{"c", "g", "m"}`` when there is a signature.  The one writer of
        triangulation documents; each scalar is written as
        :func:`~hiveweb.thirds.json_text` writes it."""
        edges = []
        for rec in sorted(self.edges, key=lambda r: r.id):
            (t0, s0), a1, eid, tail, head = rec.attach0, rec.attach1, rec.id, rec.tail, rec.head
            second = '"boundary"' if not a1 else "[%s,%s]" % (
                quoted(a1[0]) if type(a1[0]) is str else json_text(a1[0]),
                a1[1] if type(a1[1]) is int else json_text(a1[1]))
            edges.append('{"attach":[[%s,%s],%s],"head":%s,"id":%s,"tail":%s}' % (
                quoted(t0) if type(t0) is str else json_text(t0),
                s0 if type(s0) is int else json_text(s0), second,
                head if type(head) is int else json_text(head),
                quoted(eid) if type(eid) is str else json_text(eid),
                tail if type(tail) is int else json_text(tail)))
        signature = ""
        if self.signature is not None:
            g, c, m = map(json_text, self.signature)
            signature = '"signature":{"c":%s,"g":%s,"m":%s},' % (c, g, m)
        return '{"edges":[%s],%s"triangles":[%s]}' % (
            ",".join(edges), signature, ",".join(map(json_text, sorted(self.triangles))))

    def to_json(self) -> dict:
        """The triangulation document :meth:`to_text` writes, parsed."""
        return json.loads(self.to_text())

    @classmethod
    def from_json(cls, doc: dict) -> "Triangulation":
        """Integers obey :func:`~hiveweb.thirds.checked_int`; ids are strings or
        ints, labels ints or strings.  The document, each edge and a signature
        are objects holding their fields, and ``triangles`` and ``edges``
        arrays, checked before they are read; ``attach`` lists one or two
        attachments (the second may be ``"boundary"``), else the edge is named.
        Each other check follows the reads it guards, so a value those reads
        fail on keeps their message.  An edge that passes the inline tests (a
        string id, string or capped int labels, ``[string, capped int]`` pairs)
        is taken as it is; :func:`_read_edge` reads any other, and words its
        first error."""
        cap, edges, new = int_cap(), [], tuple.__new__  # new skips EdgeRec's own __new__
        for e in read_array(doc, "triangulation document", "edges"):
            try:
                raw, eid, tail, head = e["attach"], e["id"], e["tail"], e["head"]
                a0, a1 = raw[0], raw[1] if len(raw) == 2 else "boundary"
                boundary = a1 == "boundary"
                (t0, s0), (t1, s1) = a0, a0 if boundary else a1
                fast = (type(raw) is list and len(raw) < 3 and type(eid) is str
                        and (type(tail) is str or type(tail) is int and -cap <= tail <= cap)
                        and (type(head) is str or type(head) is int and -cap <= head <= cap)
                        and type(a0) is list and (boundary or type(a1) is list)
                        and type(t0) is str and type(s0) is int and -cap <= s0 <= cap
                        and type(t1) is str and type(s1) is int and -cap <= s1 <= cap)
            except (LookupError, TypeError, ValueError):
                fast = False
            edges.append(new(EdgeRec, (eid, tail, head, (t0, s0), None if boundary else (t1, s1)))
                         if fast else _read_edge(e, len(edges)))
        sig = None
        if "signature" in doc:
            s = read_object(doc["signature"], "signature", *"gcm")
            sig = tuple(checked_int(s[k], "signature") for k in "gcm")
        triangles = [t if type(t) is str else _id(t, "triangle id")
                     for t in read_array(doc, "triangulation document", "triangles")]
        return cls(triangles, edges, sig)


def validate_complex(tri: Triangulation) -> list[dict]:
    """Structural violations in list order, each a dict naming its kind, as
    the walk of ``tri._walk`` found them; none when the gluing is coherent."""
    return list(tri._walk[1])


# -- polygon construction ---------------------------------------------------


def build_polygon(m: int, diagonals) -> Triangulation:
    """Triangulated convex m-gon with vertices 0..m-1 counterclockwise.

    Boundary edges are oriented counterclockwise (i -> i+1 mod m), diagonals
    from the lower vertex index.  Edge ids are "lo-hi", triangle ids "a-b-c"
    with sorted corners.
    """
    if not isinstance(m, int) or m < 3:
        raise InvalidPolygonTriangulation(f"need an integer m >= 3, got {_shown(m)}")
    diags: set[tuple[int, int]] = set()
    for pair in diagonals:
        a, b = int(pair[0]), int(pair[1])
        if not (0 <= a < m and 0 <= b < m):
            raise InvalidPolygonTriangulation(f"diagonal {_shown(pair)} out of range")
        lo, hi = min(a, b), max(a, b)
        if lo == hi or (hi - lo) % m in (1, m - 1):
            raise InvalidPolygonTriangulation(f"{_shown(pair)} is not a diagonal of the {m}-gon")
        if (lo, hi) in diags:
            raise InvalidPolygonTriangulation(f"duplicate diagonal {_shown(pair)}")
        diags.add((lo, hi))
    if len(diags) != m - 3:
        raise InvalidPolygonTriangulation(
            f"a triangulated {m}-gon needs {m - 3} diagonals, got {len(diags)}")

    # ends[hi]: the lower ends of the chords (lo, hi), the closing side (0, m-1) too
    ends: list[list[int]] = [[] for _ in range(m)]
    for lo, hi in diags:
        ends[hi].append(lo)
    ends[m - 1].append(0)
    # Walk v = 1..m-1 over the chain of vertices still open below v: each chord
    # (lo, v), innermost first, closes the face (lo, k, v) on the top vertex k,
    # which must sit right above lo.  Sides lo-k and k-v walk their edges
    # tail -> head, side v-lo walks back unless it is the boundary edge m-1 -> 0.
    fwd: dict[str, Attach] = {}
    bwd: dict[str, Attach] = {}
    stack, faces = [0], []
    for v in range(1, m):
        for lo in sorted(ends[v], reverse=True):
            k = stack.pop()
            if stack[-1] != lo:
                raise InvalidPolygonTriangulation(f"diagonals cross at chord {(lo, v)}")
            faces.append((lo, k, v))
            tid = f"{lo}-{k}-{v}"
            fwd[f"{lo}-{k}"], fwd[f"{k}-{v}"] = (tid, 0), (tid, 1)
            if (lo, v) == (0, m - 1):
                fwd[f"{lo}-{v}"] = (tid, 2)
            else:
                bwd[f"{lo}-{v}"] = (tid, 2)
        stack.append(v)

    recs = []
    for tail in range(m):
        head = (tail + 1) % m
        eid = f"{min(tail, head)}-{max(tail, head)}"
        recs.append(EdgeRec(eid, tail, head, fwd[eid], None))
    for lo, hi in sorted(diags):
        eid = f"{lo}-{hi}"
        recs.append(EdgeRec(eid, lo, hi, fwd[eid], bwd[eid]))
    tri_ids = [f"{a}-{b}-{c}" for a, b, c in sorted(faces)]
    return Triangulation(tri_ids, recs, signature=(0, 1, m))


# -- the quadrilateral frame and the flip ------------------------------------


def _quad(tri: Triangulation, rec: EdgeRec) -> tuple[int, ...]:
    """The positions of the twelve quiver vertices a1..a12 around the diagonal
    ``rec``, read off its cells' frames once :meth:`Triangulation.check` passes.

    The diagonal runs Q -> P by its stored orientation; a6/a2 sit on it near
    Q/P, and a5/a7 are the centers of the triangles to the left/right of
    Q -> P.  With R and S the far corners of the left and right triangle,
    a1/a4 lie on the side P-R near P/R, a9/a10 on R-Q near R/Q, a3/a8 on S-P
    near P/S and a11/a12 on Q-S near Q/S: the (near, far) pairs of the left
    cell's sides Q->P, P->R, R->Q and the right cell's Q->S, S->P."""
    frames = tri.check()
    if rec.attach1 is None:
        raise NotFlippable(f"edge {_shown(rec.id)} is on the boundary")
    (t_left, s_left), (t_right, s_right) = rec.attach0, rec.attach1
    if t_left == t_right:
        raise SelfFoldedUnsupported(
            f"edge {_shown(rec.id)} glues triangle {_shown(t_left)} to itself")
    left, right = frames[t_left], frames[t_right]
    (a6, a2), (a1, a4), (a9, a10) = (_near_far(left, s_left + k) for k in range(3))
    (a11, a12), (a8, a3) = (_near_far(right, s_right + k) for k in (1, 2))
    quad = (a1, a2, a3, a4, left[CENTER], a6, right[CENTER], a8, a9, a10, a11, a12)
    # also catches two outer sides on one edge, or one on the diagonal
    if len(set(quad)) != 12:
        raise SelfFoldedUnsupported(f"quadrilateral around {_shown(rec.id)} wraps onto itself")
    return quad


def quad_frame(tri: Triangulation, edge_id: str) -> tuple[str, ...]:
    """The keys a1..a12 of the quadrilateral around interior edge ``edge_id``:
    the positions :func:`_quad` reads, each spelled as its key."""
    return tuple(map(tri._key, _quad(tri, tri.edge(edge_id))))


def _rotate_to_min(cycle: tuple) -> tuple[tuple, int]:
    """The least rotation of a cycle and the shift that gives it; labels that
    do not compare are compared by ``repr``."""
    shifts = range(len(cycle))
    rotations = [cycle[i:] + cycle[:i] for i in shifts]
    try:
        shift = min(shifts, key=rotations.__getitem__)
    except TypeError:
        shift = min(shifts, key=lambda i: tuple(map(repr, rotations[i])))
    return rotations[shift], shift


def flip_triangulation(tri: Triangulation, edge_id: str
                       ) -> tuple[Triangulation, tuple[str, ...], tuple[str, ...], str]:
    """Replace the diagonal of its quadrilateral with the other diagonal.

    Returns the new triangulation, the frame of (T, e) as
    :func:`quad_frame` gives it, the post-flip frame and the new diagonal's
    id.  The post-flip frame is positional: its slot k holds the key of the
    vertex that now occupies the pre-flip position of slot k, so a2/a6 are the
    new centers and a5/a7 the new diagonal's vertices near R and S.  Each
    outer side's edge, and whether it walks that edge tail -> head, is read
    off the position near its first corner in :func:`_quad`'s frame.  Ids of
    the two rebuilt cells and of the new diagonal are derived from corner
    labels, so any flip path between the same two triangulations of a polygon
    yields identical data.
    """
    rec = tri.edge(edge_id)
    quad = _quad(tri, rec)
    n, eids = len(tri._ids[0]), tri._ids[1]
    # the outer sides P->R, S->P, R->Q, Q->S as (edge, slot at a1, a8, a9, a11):
    # slot 0 exactly when the side walks the edge tail -> head from that corner
    pr, sp, rq, qs = ((tri._edge_by_id[eids[(at - n) // 2]], (at - n) % 2)
                      for at in (quad[0], quad[7], quad[8], quad[10]))
    q, p, r, s = rec.tail, rec.head, *((e.tail, e.head)[slot] for e, slot in (rq, sp))
    (tail, head), _ = _rotate_to_min((r, s))
    new_eid = f"{tail}-{head}"
    if new_eid in tri._edge_by_id and new_eid != edge_id:
        raise InvalidTriangulation(
            f"flip of {_shown(edge_id)} would reuse edge id {_shown(new_eid)}; "
            "distinct arcs with equal endpoints are not supported")

    # each new cell as a counterclockwise cycle of (corner, the outer side
    # leaving it), None for the new diagonal; cell P covers the old a2 side
    cells = (((r, None), (s, sp), (p, pr)), ((r, rq), (q, qs), (s, None)))
    new_slot = []  # (outer side, its (cell, side) after the flip)
    diag: list[Attach] = []  # the new diagonal's (cell, side) in cell P, then Q
    for cell in cells:
        rot, shift = _rotate_to_min(tuple(label for label, _ in cell))
        tid = "-".join(str(v) for v in rot)
        for k in range(3):
            outer = cell[(k + shift) % 3][1]
            if outer is None:
                diag.append((tid, k))
            else:
                new_slot.append((outer, (tid, k)))
    (pid, _), (qid, _) = diag
    if pid == qid:
        raise SelfFoldedUnsupported(
            f"flip of {_shown(edge_id)} would produce two cells with id {_shown(pid)}")
    t_left, t_right = rec.attach0[0], rec.attach1[0]
    for tid in (pid, qid):
        if tid in tri.check() and tid not in (t_left, t_right):
            raise InvalidTriangulation(
                f"flip of {_shown(edge_id)} would reuse triangle id {_shown(tid)}; "
                "the cell that has it is not replaced")

    from_r = tail == r  # the new diagonal runs R -> S, so cell P walks it first
    moved = {edge_id: EdgeRec(new_eid, tail, head, *(diag if from_r else diag[::-1]))}
    for (old, slot), at in new_slot:
        moved[old.id] = old._replace(attach1=at) if slot else old._replace(attach0=at)
    new_tris = [pid if t == t_left else qid if t == t_right else t for t in tri.triangles]
    flipped = Triangulation(new_tris, [moved.get(e.id, e) for e in tri.edges], tri.signature)

    frame_old = tuple(map(tri._key, quad))
    a1, _, a3, a4, _, _, _, *outer = frame_old
    frame_new = (a1, f"c:{pid}", a3, a4, f"e:{new_eid}:{1 - from_r}", f"c:{qid}",
                 f"e:{new_eid}:{int(from_r)}", *outer)
    return flipped, frame_old, frame_new, new_eid
