import json
import random
import time
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_flip_errors import TORUS

from hiveweb.cli import run
from hiveweb import sampling
from hiveweb.errors import HivewebError, InvalidTriangulation, SamplingFailed
from hiveweb.hive import validate_hive
from hiveweb.sampling import _tree_order, sample_hive
from hiveweb.surface import SIDE_LABELS, EdgeRec, Triangulation, build_polygon, validate_complex
from hiveweb.web import web_to_hive_thirds


def test_bound_zero_gives_zero_hive():
    tri = build_polygon(5, [(0, 2), (0, 3)])
    values = sample_hive(tri, 0, seed=99)
    assert values == [0] * len(tri.keys)


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
            raise SamplingFailed(f"no box coordinates fit the fixed edges of triangle {t!r}")
        h = entries[candidates[rng.randrange(len(candidates))]]
        for p, value in zip(frame, h):
            if thirds[p] is not None and thirds[p] != value:
                raise SamplingFailed(f"internal inconsistency writing {tri.keys[p]}")
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


def test_the_seed_three_failure_is_the_enumerations():
    assert _same_sample(dual_cycle_complex(), 1, 3) == (
        "raised", "SamplingFailed", "no box coordinates fit the fixed edges of triangle 'C'")


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


def test_values_past_a_byte_are_unpacked_whole():
    """The sampler adds hives as ints that pack each value in 64 bits; at
    K = 1000 the values run into the thousands of thirds and the hive is
    still valid."""
    hive = sample_hive(TWELVE, 1000, 4)
    assert max(hive) > 1 << 12
    assert validate_hive(TWELVE, hive) == []


def test_a_bound_past_the_packed_fields_is_refused(tmp_path, capsys, monkeypatch):
    """12 * bound thirds must fit a 64-bit field; a larger bound is refused
    before any work (were it not, building the list of x hives would run out
    of memory, so the test stops it there)."""
    monkeypatch.setattr(sampling, "_packed", None)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(TWELVE.to_json()))
    bound = str(sampling.MAX_BOUND + 1)
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", bound)  # a size flag obeys the cap, read first
    assert run(["sample", "--triangulation", str(path), "--bound", bound, "--seed", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"hiveweb: bound must be at most {sampling.MAX_BOUND}\n"
    assert 12 * sampling.MAX_BOUND < 1 << 64 <= 12 * (sampling.MAX_BOUND + 1)
