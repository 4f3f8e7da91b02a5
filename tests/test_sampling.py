import hashlib
import json
import random
import time
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_flip_errors import TORUS

from hiveweb import sampling
from hiveweb.cli import run
from hiveweb.errors import HivewebError, InvalidTriangulation, SamplingFailed
from hiveweb.hive import validate_hive
from hiveweb.sampling import _tree_order, sample_hive
from hiveweb.surface import SIDE_LABELS, EdgeRec, Triangulation, build_polygon, validate_complex
from hiveweb.web import web_to_hive_thirds


def test_bound_zero_gives_zero_hive():
    tri = build_polygon(5, [(0, 2), (0, 3)])
    values = sample_hive(tri, 0, seed=99)
    assert values == [0] * len(tri.keys)


def test_a_negative_bound_is_refused():
    with pytest.raises(ValueError, match="bound must be non-negative"):
        sample_hive(build_polygon(4, [(0, 2)]), -1, 0)


def test_deterministic_in_seed():
    tri = build_polygon(4, [(0, 2)])
    assert sample_hive(tri, 3, 5) == sample_hive(tri, 3, 5)
    assert sample_hive(tri, 3, 5) != sample_hive(tri, 3, 6)


def test_samples_are_valid_hives():
    tri = build_polygon(4, [(0, 2)])
    for seed in range(150):
        assert validate_hive(tri, sample_hive(tri, 3, seed)) == []


def test_assigns_every_theta_vertex():
    tri = build_polygon(6, [(0, 2), (0, 3), (3, 5)])
    values = sample_hive(tri, 2, seed=0)
    assert len(values) == len(tri.keys) and None not in values


def dual_cycle_complex():
    """Three triangles glued in a cycle; the last one faces two independent
    edge constraints, which the sampling box cannot always satisfy."""
    edges = [
        EdgeRec("eAB", "v", "v", ("A", 0), ("B", 0)),
        EdgeRec("eBC", "v", "v", ("B", 1), ("C", 1)),
        EdgeRec("eCA", "v", "v", ("C", 0), ("A", 1)),
        EdgeRec("bA", "v", "v", ("A", 2), None),
        EdgeRec("bB", "v", "v", ("B", 2), None),
        EdgeRec("bC", "v", "v", ("C", 2), None),
    ]
    return Triangulation(["A", "B", "C"], edges)


def test_sampling_failure_is_reported():
    tri = dual_cycle_complex()
    assert not validate_complex(tri)
    with pytest.raises(SamplingFailed):
        sample_hive(tri, 1, seed=3)


def test_dual_cycle_successes_are_valid():
    tri = dual_cycle_complex()
    produced = 0
    for seed in range(40):
        try:
            values = sample_hive(tri, 1, seed)
        except SamplingFailed:
            continue
        produced += 1
        assert validate_hive(tri, values) == []
    assert produced > 0


def test_self_glued_edge_rejected():
    edges = [
        EdgeRec("loop", "v", "v", ("A", 0), ("A", 1)),
        EdgeRec("b", "v", "v", ("A", 2), None),
    ]
    tri = Triangulation(["A"], edges)
    with pytest.raises(InvalidTriangulation):
        sample_hive(tri, 1, seed=0)


def test_disconnected_complex_rejected():
    """Two triangles that share no edge: the walk from the least one misses the other."""
    edges = [EdgeRec(f"{t}{s}", f"{t}{s}", f"{t}{(s + 1) % 3}", (t, s), None)
             for t in "AB" for s in range(3)]
    tri = Triangulation(["A", "B"], edges)
    assert not validate_complex(tri)
    with pytest.raises(InvalidTriangulation, match="triangulation is not connected"):
        sample_hive(tri, 1, seed=0)


def sample_with_unknown_triangle(tmp_path, capsys, attachment):
    """Exit code and report of ``sample`` when the given attachment of the
    interior edge 0-2 names the unlisted triangle 9-9-9."""
    doc = build_polygon(5, [(0, 2), (0, 3)]).to_json()
    edge = next(e for e in doc["edges"] if e["id"] == "0-2")
    edge["attach"][attachment][0] = "9-9-9"
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code = run(["sample", "--triangulation", str(path), "--bound", "1", "--seed", "0"])
    return code, json.loads(capsys.readouterr().out)


def _unsound(detail):
    return 1, {"error": "InvalidTriangulation", "detail": detail}


def test_interior_edge_on_unknown_triangle_rejected(tmp_path, capsys):
    assert sample_with_unknown_triangle(tmp_path, capsys, 1) == _unsound(
        'triangulation has 2 structural violations: '
        '[{"edge":"0-2","kind":"unknown-triangle","triangle":"9-9-9"},'
        '{"kind":"dangling-side","side":2,"triangle":"0-1-2"}]')


def test_interior_edge_from_unknown_triangle_rejected(tmp_path, capsys):
    assert sample_with_unknown_triangle(tmp_path, capsys, 0) == _unsound(
        'triangulation has 2 structural violations: '
        '[{"edge":"0-2","kind":"unknown-triangle","triangle":"9-9-9"},'
        '{"kind":"dangling-side","side":0,"triangle":"0-2-3"}]')


def _sample_extra_edge(tmp_path, capsys, attachment):
    """The reports of ``validate --triangulation`` and ``sample`` on the
    square plus a boundary edge 9-9 at ``attachment``."""
    doc = build_polygon(4, [(0, 2)]).to_json()
    doc["edges"].append({"id": "9-9", "tail": 7, "head": 8, "attach": [attachment, "boundary"]})
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", "--triangulation", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)["violations"]
    code = run(["sample", "--triangulation", str(path), "--bound", "1", "--seed", "0"])
    return report, (code, json.loads(capsys.readouterr().out))


def test_edge_attached_only_to_an_unlisted_triangle_rejected(tmp_path, capsys):
    """A boundary edge whose one cell is not listed: the sampler refuses it as
    ``validate --triangulation`` does, rather than writing a hive that
    ``validate --hive`` refuses for the edge's missing values."""
    report, sampled = _sample_extra_edge(tmp_path, capsys, ["zz", 0])
    assert [v["kind"] for v in report] == ["unknown-triangle", "count-mismatch"]
    assert sampled == _unsound(
        'triangulation has 2 structural violations: '
        '[{"edge":"9-9","kind":"unknown-triangle","triangle":"zz"},'
        '{"field":"edges","have":6,"kind":"count-mismatch","want":5}]')


def test_edge_at_a_side_outside_its_triangle_rejected(tmp_path, capsys):
    """A boundary edge at side 3 of a listed cell: refused before the
    sampler walks the cells, not written as a hive without the edge's values."""
    report, sampled = _sample_extra_edge(tmp_path, capsys, ["0-1-2", 3])
    assert [v["kind"] for v in report] == ["bad-side-index", "count-mismatch"]
    assert sampled == _unsound(
        'triangulation has 2 structural violations: '
        '[{"edge":"9-9","kind":"bad-side-index","side":3,"triangle":"0-1-2"},'
        '{"field":"edges","have":6,"kind":"count-mismatch","want":5}]')


def _tree_order_by_list(tri):
    """The visit order as first written, with a list for the queue, which
    follows the order of ``tri``'s lists: on a canonical document (sorted, as
    ``to_json`` writes it) that is the content order the sampler uses."""
    neighbors = {t: [] for t in tri.triangles}
    for rec in tri.edges:
        if rec.attach1 is not None:
            neighbors[rec.attach0[0]].append(rec.attach1[0])
            neighbors[rec.attach1[0]].append(rec.attach0[0])
    order, seen, queue = [], set(), [tri.triangles[0]]
    while queue:
        t = queue.pop(0)
        if t not in seen:
            seen.add(t)
            order.append(t)
            queue.extend(n for n in neighbors[t] if n not in seen)
    return order


def test_tree_order_is_unchanged_breadth_first():
    rng = random.Random(7)
    for m in (3, 4, 12, 60):
        for _ in range(5):
            diagonals, stack = [], [(0, m - 1)]
            while stack:
                lo, hi = stack.pop()
                if hi - lo >= 2:
                    k = rng.randint(lo + 1, hi - 1)
                    parts = [(a, b) for a, b in ((lo, k), (k, hi)) if b - a >= 2]
                    diagonals += parts
                    stack += parts
            tri = build_polygon(m, diagonals)
            assert _tree_order(tri) == _tree_order_by_list(Triangulation.from_json(tri.to_json()))


THIRTEEN = build_polygon(13, [(0, 2), (0, 5), (2, 5), (3, 5), (5, 12), (6, 9), (6, 10), (6, 12),
                              (7, 9), (10, 12)])


@settings(max_examples=40, deadline=None)
@given(st.permutations(THIRTEEN.triangles), st.permutations(THIRTEEN.edges), st.integers(0, 9))
@example(sorted(THIRTEEN.triangles), sorted(THIRTEEN.edges), 0)  # the order to_json writes
def test_the_sample_depends_only_on_the_triangulations_content(triangles, edges, seed):
    shuffled = Triangulation(triangles, edges, THIRTEEN.signature)
    assert shuffled == THIRTEEN
    assert sample_hive(shuffled, 1, seed) == sample_hive(THIRTEEN, 1, seed)


# -- differential test against the enumerating sampler -------------------------
#
# The reference below is the sampler as it was before it counted and unranked:
# it listed every tuple of the box, indexed them by each side's (near, far)
# values and picked among the intersection of the lists that the fixed sides
# allow.  Both must give the same hive, or fail with the same text.


@lru_cache(maxsize=None)
def _reference_box(k):
    """All box hives a1..a7, in thirds, with their per-side value indexes."""
    entries = [
        web_to_hive_thirds(x, *rest)
        for x in range(-k, k + 1)
        for rest in product(range(k + 1), repeat=6)
    ]
    by_side = tuple({} for _ in SIDE_LABELS)
    for idx, h in enumerate(entries):
        for index, (near, far) in zip(by_side, SIDE_LABELS):
            index.setdefault((h[near], h[far]), []).append(idx)
    return entries, by_side


def reference_sample_hive(tri, bound, seed):
    entries, by_side = _reference_box(bound)
    rng = random.Random(seed)
    thirds = [None] * len(tri.keys)
    for t in _tree_order(tri):
        frame = tri.frame(t)
        pools = []
        for index, (near, far) in zip(by_side, SIDE_LABELS):
            pair = (thirds[frame[near]], thirds[frame[far]])
            if None not in pair:
                pools.append(index.get(pair, []))
        if not pools:
            candidates = range(len(entries))
        elif len(pools) == 1:
            candidates = pools[0]
        else:
            candidates = sorted(set(pools[0]).intersection(*pools[1:]))
        if not candidates:
            raise SamplingFailed(f"no box coordinates fit the fixed edges of triangle {json.dumps(t)}")
        h = entries[candidates[rng.randrange(len(candidates))]]
        for p, value in zip(frame, h):
            if thirds[p] is not None and thirds[p] != value:
                raise SamplingFailed(f"internal inconsistency writing {json.dumps(tri.keys[p])}")
            thirds[p] = value
    return thirds


def _outcome(sampler, tri, bound, seed):
    try:
        return "ok", sampler(tri, bound, seed)
    except HivewebError as exc:
        return "raised", type(exc).__name__, str(exc)


def _same_sample(tri, bound, seed):
    got = _outcome(sample_hive, tri, bound, seed)
    assert got == _outcome(reference_sample_hive, tri, bound, seed)
    return got


# the third triangle of the cycle has two fixed sides, the torus's second three
CYCLIC = {"dual cycle": dual_cycle_complex(), "torus": Triangulation.from_json(TORUS)}


@pytest.mark.parametrize("tri", CYCLIC.values(), ids=CYCLIC)
def test_cyclic_complexes_sample_as_the_enumeration_does(tri):
    outcomes = [_same_sample(tri, bound, seed) for bound in (0, 1, 2) for seed in range(16)]
    assert any(outcome[0] == "ok" for outcome in outcomes)


def test_a_value_that_disagrees_with_a_neighbours_is_refused(monkeypatch):
    """The sampler checks each value it writes against the one a neighbour
    wrote there: one shifted value on the square's shared diagonal, in the
    second cell it fills, is named."""
    convert, cells = sampling.web_to_hive_thirds, []

    def shifted(*coords):
        values = list(convert(*coords))
        cells.append(values)
        if len(cells) == 2:
            values[1] += 3  # a2 of 0-2-3: on its side 0, the diagonal 0-2
        return values

    monkeypatch.setattr(sampling, "web_to_hive_thirds", shifted)
    with pytest.raises(SamplingFailed) as info:
        sample_hive(build_polygon(4, [(0, 2)]), 1, 0)
    assert str(info.value) == 'internal inconsistency writing "e:0-2:0"'


def test_the_seed_three_failure_is_the_enumerations():
    assert _same_sample(dual_cycle_complex(), 1, 3) == (
        "raised", "SamplingFailed", 'no box coordinates fit the fixed edges of triangle "C"')


@st.composite
def sampled_complexes(draw):
    """A random polygon (m = 3..14) or one of the cyclic complexes."""
    kind = draw(st.sampled_from(["polygon", *CYCLIC]))
    if kind != "polygon":
        return CYCLIC[kind]
    m = draw(st.integers(3, 14))
    diagonals, stack = [], [(0, m - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo >= 2:
            k = draw(st.integers(lo + 1, hi - 1))
            parts = [(a, b) for a, b in ((lo, k), (k, hi)) if b - a >= 2]
            diagonals += parts
            stack += parts
    return build_polygon(m, diagonals)


@settings(max_examples=60, deadline=None)
@given(sampled_complexes(), st.integers(0, 2), st.integers(0, 2**32))
def test_the_sampler_picks_what_the_enumeration_picks(tri, bound, seed):
    _same_sample(tri, bound, seed)


TWELVE = build_polygon(12, [(0, 2), (0, 5), (2, 5), (3, 5), (5, 11), (6, 9), (6, 11), (7, 9),
                            (9, 11)])


def test_a_large_bound_is_counted_not_listed(tmp_path, capsys):
    """A cost check: the box for K = 10 holds 21 * 11^6 (about 37M) tuples,
    and counting the ones that fit keeps a 12-gon's sample well under a
    second."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps(TWELVE.to_json()))
    start = time.perf_counter()
    code = run(["sample", "--triangulation", str(path), "--bound", "10", "--seed", "4"])
    elapsed = time.perf_counter() - start
    hive = capsys.readouterr().out
    assert code == 0 and elapsed < 1.0
    (tmp_path / "h.json").write_text(hive)
    assert run(["validate", "--hive", str(tmp_path / "h.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "violations": []}
    # a4 of a K = 3 box tuple is at most 12 (36 thirds)
    assert max(v["thirds"] for v in json.loads(hive)["values"].values()) > 36


def test_values_past_a_byte_are_written_whole():
    """At K = 1000 the values run into the thousands of thirds, and the
    hive that the drawn web converts to is still valid."""
    hive = sample_hive(TWELVE, 1000, 4)
    assert max(hive) > 1 << 12
    assert validate_hive(TWELVE, hive) == []


# SHA-256 of the `sample` document where the enumeration reference does not
# reach: larger bounds, both cyclic complexes at K = 3 and a 200-gon
PINNED = {
    "twelve": TWELVE, **CYCLIC,
    "200-gon fan": build_polygon(200, [(0, k) for k in range(2, 199)]),
}
SAMPLE_SHA256 = {
    ("twelve", 10, 0): "9367e92ee4d555e11f0cb09b20bdf539a9ae4da1abe3da97228c1d5aa643e0b5",
    ("twelve", 10, 1): "2bfd565517521d92813bc6033da23fa50d8f5d693baaef8ee21694e4d257bb52",
    ("twelve", 10, 2): "c9301b27d6537b8f2cd7f9ea3d72e20abf6401f98f00f24becd71d80cd7ad880",
    ("twelve", 1000, 0): "2abc0ae8aad020cbf7fccb97536a8c3035ce90551a5cbd8813f3d76f94952b00",
    ("twelve", 1000, 1): "37ebed25eb54d78ee2bc9c6c61870ec4bbf0ee1f7673a0bcce9a5c16a59770ab",
    ("twelve", 1000, 2): "9dab554f0f662d51e46494d498555ec4a2c1385830e332fe58b0dda5ef446a73",
    ("torus", 3, 0): "a71dda8d2d26f33f2abf98692efd62566d5bbcabb78c78082489d8ca35b4c937",
    ("torus", 3, 1): "dd52561ec4e42e532682568ba78e81fb7be852812921a8fa1ca4c493ce8bbd89",
    ("torus", 3, 2): "6ba4e4a08a4c2b1f59457a0ed76f90fc9c7dec0247c4dce3d34a07c3015dbcea",
    ("torus", 3, 3): "624b4839ab38873ea975d4881f7b020308f9422fc6c4e403bce21a4e8bf65476",
    ("torus", 3, 4): "e3cda8d6584ab8d941837db41a3a57b52139d7ad9e27eda7edda57bcb6ea907a",
    ("torus", 3, 5): "e735024e83824b6bc26865f97bf3dfbc200a700b1e91c8ed144cff351e80d980",
    ("torus", 3, 6): "c19411101ec7910e090d40c8aa20107c8f375dc22005030ea5d0fde087afd114",
    ("torus", 3, 7): "e9434fc1a00e5e175394cfce3bf02fd589455f2b95862b35699884c7884639ef",
    ("dual cycle", 3, 0): "17f52fdb8cf729aa9b42145a101e1809ac4533c3901c21c6bfe19c6bbea31971",
    ("dual cycle", 3, 1): "31efed59ab4d6da67ff2fd18be2c3fae3dec1dd995211d34d1a7f4bb898e68ea",
    ("dual cycle", 3, 2): (1, '{"detail":"no box coordinates fit the fixed edges of triangle '
                              '\\"C\\"","error":"SamplingFailed"}\n', ""),
    ("dual cycle", 3, 3): "2f8effb8f35180cdb52bfdc60cc9bc9301e5b529156c75be2fd42a1cc093e3c0",
    ("dual cycle", 3, 4): "853ae6c26621411dc6d497a8590ee02885b78bf2c339868a78b5097853740429",
    ("dual cycle", 3, 5): "cf8585ecb55be42119752ae356d954a4fe61203ff5fa417ccd2a06f418078828",
    ("dual cycle", 3, 6): "bca5177e0f108a00ef2f985486706b25a0cc3fa4a445173fec41dc1cbf1e7de8",
    ("dual cycle", 3, 7): "fbe5b0f9e5098583bfe206ef894423b34f82bc5fbf848569553ef9c7b15ae76f",
    ("200-gon fan", 3, 0): "e373d55b9d5768de09bda31c5ec0a47eebcc867ac6ce90efcab9d63995fc2180",
}


@pytest.mark.parametrize("case", SAMPLE_SHA256, ids=lambda case: "-".join(map(str, case)))
def test_sample_documents_are_pinned(case, tmp_path, capsys):
    name, bound, seed = case
    path = tmp_path / "t.json"
    path.write_text(json.dumps(PINNED[name].to_json()))
    code = run(["sample", "--triangulation", str(path), "--bound", str(bound), "--seed", str(seed)])
    out, err = capsys.readouterr()
    want = SAMPLE_SHA256[case]
    if isinstance(want, tuple):  # a failure: exit code, report and stderr
        assert (code, out, err) == want
    else:
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, want, "")
