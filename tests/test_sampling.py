import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiveweb.cli import run
from hiveweb.errors import InvalidTriangulation, SamplingFailed
from hiveweb.hive import validate_hive
from hiveweb.sampling import _tree_order, sample_hive
from hiveweb.surface import EdgeRec, Triangulation, build_polygon, validate_complex
from hiveweb.thirds import Third


def test_bound_zero_gives_zero_hive():
    tri = build_polygon(5, [(0, 2), (0, 3)])
    values = sample_hive(tri, 0, seed=99)
    assert all(v == Third(0) for v in values.values())


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
    assert set(values) == set(tri.theta_index())


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
    assert validate_complex(tri).ok
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
    assert validate_complex(tri).ok
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


UNKNOWN_TRIANGLE = (1, {"error": "InvalidTriangulation",
                        "detail": "edge '0-2' is attached to unknown triangle '9-9-9'"})


def test_interior_edge_on_unknown_triangle_rejected(tmp_path, capsys):
    assert sample_with_unknown_triangle(tmp_path, capsys, 1) == UNKNOWN_TRIANGLE


def test_interior_edge_from_unknown_triangle_rejected(tmp_path, capsys):
    assert sample_with_unknown_triangle(tmp_path, capsys, 0) == UNKNOWN_TRIANGLE


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
