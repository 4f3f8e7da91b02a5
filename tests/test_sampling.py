import json

import pytest

from hiveweb.cli import run
from hiveweb.errors import InvalidTriangulation, SamplingFailed
from hiveweb.hive import validate_hive
from hiveweb.sampling import sample_hive
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


def test_interior_edge_on_unknown_triangle_rejected(tmp_path, capsys):
    doc = build_polygon(5, [(0, 2), (0, 3)]).to_json()
    edge = next(e for e in doc["edges"] if e["id"] == "0-2")
    edge["attach"][1][0] = "9-9-9"
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code = run(["sample", "--triangulation", str(path), "--bound", "1", "--seed", "0"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "InvalidTriangulation",
        "detail": "edge '0-2' is attached to unknown triangle '9-9-9'",
    }
