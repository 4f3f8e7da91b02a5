import json
import random

import pytest

from hiveweb import cli, hive, metric, sampling, surfacoid, web
from hiveweb.cli import run
from hiveweb.hive import hive_to_json, validate_hive
from hiveweb.sampling import sample_hive
from hiveweb.surface import Triangulation, build_polygon


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_web2hive_coords_golden(capsys):
    code, out, _ = invoke(capsys, "web2hive", "--coords", "3,2,1,1,1,1,1")
    assert code == 0
    assert out == (
        '{"a1":{"thirds":12},"a2":{"thirds":10},"a3":{"thirds":9},'
        '"a4":{"thirds":19},"a5":{"thirds":14},"a6":{"thirds":13},'
        '"a7":{"thirds":11}}\n'
    )


def test_gamma_dist_golden(capsys):
    code, out, _ = invoke(capsys, "gamma-dist", "--to", "-1,0")
    assert code == 0
    assert out == '{"thirds":2}\n'


def test_gamma_dist_with_source(capsys):
    code, out, _ = invoke(capsys, "gamma-dist", "--from", "1,1", "--to", "3,2")
    assert code == 0
    assert json.loads(out) == {"thirds": 3}


def test_validate_zero_hive(tmp_path, capsys):
    tri = build_polygon(5, [(0, 2), (0, 3)])
    tri_path = write(tmp_path / "t.json", tri.to_json())
    values = [0] * len(tri.keys)
    hive_path = write(tmp_path / "h.json", hive_to_json(tri, values, inline=False))
    code, out, _ = invoke(
        capsys, "validate", "--triangulation", tri_path, "--hive", hive_path
    )
    assert code == 0
    assert json.loads(out) == {"valid": True, "violations": []}


def test_validate_invalid_hive_exits_one(tmp_path, capsys):
    tri = build_polygon(4, [(0, 2)])
    tri_path = write(tmp_path / "t.json", tri.to_json())
    values = [0] * len(tri.keys)
    values[0] = 1  # a center
    hive_path = write(tmp_path / "h.json", hive_to_json(tri, values, inline=False))
    code, out, _ = invoke(
        capsys, "validate", "--triangulation", tri_path, "--hive", hive_path
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False and doc["violations"]


def test_validate_triangulation_only(tmp_path, capsys):
    tri_path = write(tmp_path / "t.json", build_polygon(3, []).to_json())
    code, out, _ = invoke(capsys, "validate", "--triangulation", tri_path)
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_file_round_trip_is_byte_exact(tmp_path, capsys):
    tri = build_polygon(4, [(0, 2)])
    web_doc = {
        "triangulation": tri.to_json(),
        "coords": {
            "0-1-2": {"x": 1, "y": 0, "z": 1, "t": 0, "u": 2, "v": 0, "w": 1},
            "0-2-3": {"x": -1, "y": 2, "z": 1, "t": 1, "u": 0, "v": 2, "w": 0},
        },
    }
    # make the pair consistent: derive the second triangle from a real hive
    values = sample_hive(tri, 2, seed=4)
    from hiveweb.web import hive_to_surface_web, surface_web_to_json

    web_doc = surface_web_to_json(tri, hive_to_surface_web(tri, values))
    web_path = write(tmp_path / "w.json", web_doc)

    code, hive_out, _ = invoke(capsys, "web2hive", "--web", web_path)
    assert code == 0
    hive_path = tmp_path / "h.json"
    hive_path.write_text(hive_out)

    code, web_out, _ = invoke(capsys, "hive2web", "--hive", str(hive_path))
    assert code == 0
    canonical = json.dumps(
        json.loads(json.dumps(web_doc)), sort_keys=True, separators=(",", ":")
    )
    assert web_out == canonical + "\n"


def test_flip_with_hive_transport(tmp_path, capsys):
    tri = build_polygon(4, [(0, 2)])
    tri_path = write(tmp_path / "t.json", tri.to_json())
    values = sample_hive(tri, 3, seed=21)
    hive_path = write(tmp_path / "h.json", hive_to_json(tri, values, inline=False))
    code, out, _ = invoke(
        capsys, "flip", "--triangulation", tri_path, "--edge", "0-2",
        "--hive", hive_path,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["old_edge"] == "0-2" and doc["new_edge"] == "1-3"
    flipped = Triangulation.from_json(doc["triangulation"])
    assert flipped == build_polygon(4, [(1, 3)])
    from hiveweb.hive import hive_values_from_json

    moved = hive_values_from_json(doc["hive"])
    assert validate_hive(flipped, moved) == []


def test_flip_boundary_edge_is_semantic_error(tmp_path, capsys):
    tri_path = write(tmp_path / "t.json", build_polygon(4, [(0, 2)]).to_json())
    code, out, _ = invoke(capsys, "flip", "--triangulation", tri_path, "--edge", "0-1")
    assert code == 1
    assert json.loads(out)["error"] == "NotFlippable"


def test_potential_and_cone(tmp_path, capsys):
    tri = build_polygon(4, [(0, 2)])
    values = sample_hive(tri, 2, seed=9)
    hive_path = write(tmp_path / "h.json", hive_to_json(tri, values))
    code, out, _ = invoke(capsys, "potential", "--hive", hive_path)
    assert code == 0
    assert json.loads(out)["thirds"] <= 0
    code, out, _ = invoke(capsys, "cone", "--hive", hive_path)
    assert code == 0
    assert json.loads(out) == {"in_positive_cone": True}


def test_oracle_single_and_sweep(capsys):
    code, out, _ = invoke(capsys, "oracle", "--coords", "2,0,1,0,1,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["formula"] == doc["oracle"]

    code, out, _ = invoke(
        capsys, "oracle", "--sweep", "25", "--seed", "5", "--bound", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"all_match": True, "instances": 25, "mismatches": []}


def test_oracle_sweep_lists_each_mismatch(capsys, monkeypatch):
    """An oracle that is off by one third in a1 whenever x > 0: the sweep
    exits 1 and lists exactly those instances, each with both hives."""
    def wrong(coords):
        h = web.web_to_hive_thirds(*coords)
        return (h[0] + 1, *h[1:]) if coords[0] > 0 else h

    monkeypatch.setattr(surfacoid, "oracle_triangle_hive", wrong)
    code, out, err = invoke(capsys, "oracle", "--sweep", "25", "--seed", "5", "--bound", "2")
    doc = json.loads(out)
    assert (code, err, doc["instances"], doc["all_match"]) == (1, "", 25, False)
    rng = random.Random(5)
    drawn = [(rng.randint(-2, 2), *(rng.randint(0, 2) for _ in range(6))) for _ in range(25)]
    assert [tuple(m["coords"][k] for k in "xyztuvw") for m in doc["mismatches"]] == [
        c for c in drawn if c[0] > 0]
    for m in doc["mismatches"]:
        assert m["match"] is False
        assert m["oracle"] == {**m["formula"], "a1": {"thirds": m["formula"]["a1"]["thirds"] + 1}}


def test_fermat_with_brute_window(capsys):
    code, out, _ = invoke(
        capsys, "fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["thirds"] == 8
    assert doc["brute"] == {"argmin_size": 9, "thirds": 8}
    assert doc["match"] is True


def test_fermat_empty_region_is_semantic_error(capsys):
    code, out, _ = invoke(capsys, "fermat", "--a", "0,0", "--b", "-1,0", "--c", "0,-1")
    assert code == 1
    assert json.loads(out)["error"] == "OmegaEmpty"


def test_sample_outputs_valid_hive(tmp_path, capsys):
    tri = build_polygon(5, [(0, 2), (0, 3)])
    tri_path = write(tmp_path / "t.json", tri.to_json())
    code, out, _ = invoke(
        capsys, "sample", "--triangulation", tri_path, "--bound", "2", "--seed", "3"
    )
    assert code == 0
    doc = json.loads(out)
    from hiveweb.hive import hive_values_from_json

    assert validate_hive(tri, hive_values_from_json(doc)) == []


def test_dist_generic_graph(tmp_path, capsys):
    graph_path = write(
        tmp_path / "g.json",
        {"vertices": ["u", "v", "w"], "arcs": [["u", "v"], ["v", "w"], ["w", "u"]]},
    )
    code, out, _ = invoke(capsys, "dist", "--graph", graph_path, "--from", "u", "--to", "w")
    assert code == 0
    assert json.loads(out) == {"thirds": 2}


def test_dist_unreachable(tmp_path, capsys):
    graph_path = write(tmp_path / "g.json", {"vertices": ["u", "v"], "arcs": []})
    code, out, _ = invoke(capsys, "dist", "--graph", graph_path, "--from", "u", "--to", "v")
    assert code == 1
    assert json.loads(out)["error"] == "Unreachable"


NUMBERED = {"vertices": [1, 2, -3, "a"], "arcs": [[1, 2], [-3, 1], [2, "a"]]}
# "1" names the string vertex "1"; the int vertex 1 has no path to "a"
MIXED = {"vertices": ["1", 1, "a"], "arcs": [["1", "a"]]}


@pytest.mark.parametrize("graph,src,to,expected", [
    (NUMBERED, "1", "2", {"thirds": 1}),
    (NUMBERED, "2", "1", {"thirds": 2}),
    (NUMBERED, "-3", "a", {"thirds": 3}),
    (NUMBERED, "01", "2", {"detail": 'unknown vertex "01"', "error": "KeyError"}),
    (NUMBERED, "1", "True", {"detail": 'unknown vertex "True"', "error": "KeyError"}),
    (MIXED, "1", "a", {"thirds": 1}),
])
def test_dist_names_integer_vertices_by_their_decimal_text(tmp_path, capsys, graph, src, to,
                                                            expected):
    graph_path = write(tmp_path / "g.json", graph)
    code, out, _ = invoke(capsys, "dist", "--graph", graph_path, "--from", src, "--to", to)
    assert (code, json.loads(out)) == (0 if "thirds" in expected else 1, expected)


def test_unknown_subcommand_exits_two(capsys):
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 2
    assert "usage" in err.lower() or "invalid" in err.lower()


def test_malformed_coords_exit_two(capsys):
    code, _, err = invoke(capsys, "web2hive", "--coords", "1,2,3")
    assert code == 2
    assert "coords" in err


def test_magnitude_cap_from_env(capsys, monkeypatch):
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", "100")
    code, _, err = invoke(capsys, "web2hive", "--coords", "101,0,0,0,0,0,0")
    assert code == 2
    assert "HIVEWEB_MAX_THIRDS" in err
    monkeypatch.setenv("HIVEWEB_MAX_THIRDS", "1000")
    code, out, _ = invoke(capsys, "web2hive", "--coords", "101,0,0,0,0,0,0")
    assert code == 0


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = invoke(
        capsys, "gamma-dist", "--to", "2,1", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text()) == {"thirds": 3}


def test_inline_triangulation_reference_path(tmp_path, capsys):
    tri = build_polygon(4, [(0, 2)])
    write(tmp_path / "t.json", tri.to_json())
    values = sample_hive(tri, 2, seed=1)
    doc = hive_to_json(tri, values, inline=False)
    doc["triangulation"] = "t.json"
    hive_path = write(tmp_path / "h.json", doc)
    code, out, _ = invoke(capsys, "cone", "--hive", hive_path)
    assert code == 0
    assert json.loads(out) == {"in_positive_cone": True}


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


SQUARE = build_polygon(4, [(0, 2)])
# a center one third off a zero hive: all nine rhombi of its triangle fail
OFF_CENTER = [1] + [0] * (len(SQUARE.keys) - 1)
# the square with its first edge listed twice, and with its first triangle listed twice
TWICE_LISTED_EDGE = {**SQUARE.to_json(), "edges": [*SQUARE.to_json()["edges"],
                                                   SQUARE.to_json()["edges"][0]]}
TWICE_LISTED_TRIANGLE = {**SQUARE.to_json(), "triangles": ["0-1-2", "0-2-3", "0-1-2"]}
# the square with the edge ids 1 and "1", one id once read; with edge 0-1
# listed again under the tail "x", whose copies no longer sort by their fields
INT_BESIDE_TEXT_ID = {**SQUARE.to_json(), "edges": [
    {**e, "id": {"0-1": 1, "1-2": "1"}.get(e["id"], e["id"])} for e in SQUARE.to_json()["edges"]]}
TWICE_LISTED_EDGE_TAILS = {**SQUARE.to_json(), "edges": [
    *SQUARE.to_json()["edges"], {**SQUARE.to_json()["edges"][0], "tail": "x"}]}
SQUARE_ZEROS = {key: {"thirds": 0} for key in SQUARE.keys}
SQUARE_WEB = web.surface_web_to_json(SQUARE, web.hive_to_surface_web(SQUARE, [0] * len(SQUARE.keys)))


def refused(*violations):
    """The structural gate's error document for ``violations``."""
    return canonical({"error": "InvalidTriangulation", "detail": (
        f"triangulation has {len(violations)} structural violations: "
        + json.dumps(list(violations[:3]), sort_keys=True, separators=(",", ":")))})


def reported(*violations):
    return canonical({"valid": False, "violations": list(violations)})


EDGE_0_1_TWICE = {"kind": "duplicate-id", "edge": "0-1"}
# argv with {name} for each document written, exit code, stdout, stderr
NO_TRIANGLES = {"edges": [], "triangles": []}
ORACLE_USAGE = ("usage: hiveweb oracle [-h] [--coords COORDS] [--sweep SWEEP] [--seed SEED]\n"
                "                      [--bound BOUND] [--out OUT]\n")
GAMMA_DIST_USAGE = "usage: hiveweb gamma-dist [-h] --to TO [--from SRC] [--out OUT]\n"
SAMPLE_USAGE = ("usage: hiveweb sample [-h] --triangulation TRIANGULATION --bound BOUND --seed\n"
                "                      SEED [--out OUT]\n")
BRANCHES = {
    "flip --hive invalid": (
        ["flip", "--triangulation", "{t}", "--edge", "0-2", "--hive", "{h}"],
        {"t": SQUARE.to_json(), "h": hive_to_json(SQUARE, OFF_CENTER, inline=False)},
        1, canonical({"error": "HivewebError", "detail": "hive is invalid before transport: "
                      '[{"rhombus":1,"thirds":-1,"triangle":"0-1-2"},'
                      '{"rhombus":2,"thirds":1,"triangle":"0-1-2"},'
                      '{"rhombus":3,"thirds":1,"triangle":"0-1-2"}]'}), ""),
    "flip --edge -5~2": (
        ["flip", "--triangulation", "{t}", "--edge", "-5~2"], {"t": SQUARE.to_json()},
        1, canonical({"error": "KeyError", "detail": 'unknown edge "-5~2"'}), ""),
    "validate without input": (
        ["validate"], {}, 2, "", "hiveweb: validate needs --triangulation, --hive or --web\n"),
    "web2hive without input": (
        ["web2hive"], {}, 2, "", "hiveweb: web2hive needs --coords or --web\n"),
    "oracle without input": (
        ["oracle"], {}, 2, "", "hiveweb: oracle needs --coords or --sweep\n"),
    "gamma-dist --to a,b": (
        ["gamma-dist", "--to", "a,b"], {}, 2, "",
        "hiveweb: --to needs 2 comma-separated integers, got 'a,b'\n"),
    # an integer on the command line is ASCII digits after an optional "-",
    # not every text that int() reads
    "gamma-dist --to 1_0,2": (
        ["gamma-dist", "--to", "1_0,2"], {}, 2, "",
        "hiveweb: --to needs 2 comma-separated integers, got '1_0,2'\n"),
    "gamma-dist --to +1,2": (
        ["gamma-dist", "--to", "+1,2"], {}, 2, "",
        "hiveweb: --to needs 2 comma-separated integers, got '+1,2'\n"),
    "gamma-dist --to ' 1,2'": (
        ["gamma-dist", "--to", " 1,2"], {}, 2, "",
        "hiveweb: --to needs 2 comma-separated integers, got ' 1,2'\n"),
    "web2hive --coords with a fullwidth digit": (
        ["web2hive", "--coords", "0,0,0,0,0,0,\uff11"], {}, 2, "",
        "hiveweb: --coords needs 7 comma-separated integers, got '0,0,0,0,0,0,\uff11'\n"),
    "gamma-dist --to -0,-00": (
        ["gamma-dist", "--to", "-0,-00"], {}, 0, '{"thirds":0}\n', ""),
    "fermat --window with an Arabic-Indic digit": (
        ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "\u0663"], {}, 2, "",
        "usage: hiveweb fermat [-h] --a A --b B --c C [--window WINDOW] [--out OUT]\n"
        "hiveweb fermat: error: argument --window: expected a non-negative integer, got '\u0663'\n"),
    "oracle --sweep with an Arabic-Indic digit": (
        ["oracle", "--sweep", "\u0662"], {}, 2, "",
        "usage: hiveweb oracle [-h] [--coords COORDS] [--sweep SWEEP] [--seed SEED]\n"
        "                      [--bound BOUND] [--out OUT]\n"
        "hiveweb oracle: error: argument --sweep: expected a non-negative integer, got '\u0662'\n"),
    "gamma-dist --from 1": (
        ["gamma-dist", "--to", "1,1", "--from", "1"], {}, 2, "",
        "hiveweb: --from needs 2 comma-separated integers, got '1'\n"),
    "fermat --b 1": (
        ["fermat", "--a", "0,0", "--b", "1", "--c", "0,2"], {}, 2, "",
        "hiveweb: --b needs 2 comma-separated integers, got '1'\n"),
    "fermat empty region": (
        ["fermat", "--a", "0,0", "--b", "30,0", "--c", "0,-2"], {}, 1,
        canonical({"error": "OmegaEmpty",
                   "detail": 'empty minimizer region for a "0,0", b "30,0", c "0,-2"'}), ""),
    "potential without triangles": (
        ["potential", "--hive", "{h}"],
        {"h": {"values": {}, "triangulation": {"triangles": [], "edges": []}}},
        1, '{"detail":"triangulation has no triangles","error":"InvalidHive"}\n', ""),
    # a repeated id is the walk's one finding: reported by validate
    # --triangulation, the gate's refusal after the reads and the
    # completeness check everywhere else
    "validate duplicate edge ids": (
        ["validate", "--triangulation", "{t}"], {"t": TWICE_LISTED_EDGE},
        1, reported(EDGE_0_1_TWICE), ""),
    "validate duplicate triangle ids": (
        ["validate", "--triangulation", "{t}"], {"t": TWICE_LISTED_TRIANGLE},
        1, reported({"kind": "duplicate-id", "triangle": "0-1-2"}), ""),
    "validate edge ids 1 and \"1\"": (
        ["validate", "--triangulation", "{t}"], {"t": INT_BESIDE_TEXT_ID},
        1, reported({"kind": "duplicate-id", "edge": "1"}), ""),
    "validate --hive duplicate triangle ids": (
        ["validate", "--hive", "{h}"],
        {"h": {"values": SQUARE_ZEROS, "triangulation": TWICE_LISTED_TRIANGLE}},
        1, refused({"kind": "duplicate-id", "triangle": "0-1-2"}), ""),
    "validate --hive duplicate triangle ids, incomplete": (
        ["validate", "--hive", "{h}"], {"h": {
            "values": {k: v for k, v in SQUARE_ZEROS.items() if k != "e:0-1:1"},
            "triangulation": TWICE_LISTED_TRIANGLE}},
        1, canonical({"error": "IncompleteHive", "detail": 'no value for vertex "e:0-1:1"'}), ""),
    "sample duplicate edge ids": (
        ["sample", "--triangulation", "{t}", "--bound", "1", "--seed", "0"],
        {"t": TWICE_LISTED_EDGE}, 1, refused(EDGE_0_1_TWICE), ""),
    "sample duplicate edge ids with an int and a string tail": (
        ["sample", "--triangulation", "{t}", "--bound", "1", "--seed", "0"],
        {"t": TWICE_LISTED_EDGE_TAILS}, 1, refused(EDGE_0_1_TWICE), ""),
    "flip duplicate edge ids": (
        ["flip", "--triangulation", "{t}", "--edge", "0-2"], {"t": TWICE_LISTED_EDGE},
        1, refused(EDGE_0_1_TWICE), ""),
    "web2hive --web duplicate triangle ids": (
        ["web2hive", "--web", "{w}"], {"w": {**SQUARE_WEB, "triangulation": TWICE_LISTED_TRIANGLE}},
        1, refused({"kind": "duplicate-id", "triangle": "0-1-2"}), ""),
    # a size flag obeys the cap; a value with more digits than int() converts
    # is over it, and its refusal counts the digits instead of repeating them
    "fermat --window over the cap": (
        ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "10000000000000"], {},
        2, "", "hiveweb: --window: |10000000000000| exceeds HIVEWEB_MAX_THIRDS=1000000000000\n"),
    "fermat --window of 5,000 digits": (
        ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "9" * 5000], {}, 2, "",
        "hiveweb: --window: a value of 5000 digits exceeds HIVEWEB_MAX_THIRDS=1000000000000\n"),
    "fermat --window after 5,000 zeros": (
        ["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "0" * 5000 + "6"], {},
        0, '{"brute":{"argmin_size":9,"thirds":8},"match":true,"thirds":8}\n', ""),
    "oracle --sweep of 5,000 digits": (
        ["oracle", "--sweep", "1" * 5000], {}, 2, "",
        "hiveweb: --sweep: a value of 5000 digits exceeds HIVEWEB_MAX_THIRDS=1000000000000\n"),
    "sample --bound over the cap": (
        ["sample", "--triangulation", "{t}", "--bound", "1000000000001", "--seed", "0"],
        {"t": SQUARE.to_json()}, 2, "",
        "hiveweb: --bound: |1000000000001| exceeds HIVEWEB_MAX_THIRDS=1000000000000\n"),
    "gamma-dist --to of 5,000 digits": (
        ["gamma-dist", "--to", "1" * 5000 + ",1"], {}, 2, "",
        "hiveweb: --to: a value of 5000 digits exceeds HIVEWEB_MAX_THIRDS=1000000000000\n"),
    "gamma-dist --to after 5,000 zeros": (
        ["gamma-dist", "--to", "-" + "0" * 5000 + "1,1"], {}, 0, '{"thirds":3}\n', ""),
    "oracle --coords of 5,000 digits": (
        ["oracle", "--coords", "0,0,0,0,0,0," + "2" * 5000], {}, 2, "",
        "hiveweb: --coords: a value of 5000 digits exceeds HIVEWEB_MAX_THIRDS=1000000000000\n"),
    # a seed is read by the same grammar, and keeps any magnitude int() converts
    "oracle --seed 1_0": (
        ["oracle", "--sweep", "1", "--seed", "1_0"], {}, 2, "", ORACLE_USAGE
        + "hiveweb oracle: error: argument --seed: expected an integer, got '1_0'\n"),
    "oracle --seed +3": (
        ["oracle", "--sweep", "1", "--seed", "+3"], {}, 2, "", ORACLE_USAGE
        + "hiveweb oracle: error: argument --seed: expected an integer, got '+3'\n"),
    "oracle --seed ' 3'": (
        ["oracle", "--sweep", "1", "--seed", " 3"], {}, 2, "", ORACLE_USAGE
        + "hiveweb oracle: error: argument --seed: expected an integer, got ' 3'\n"),
    "oracle --seed -5": (
        ["oracle", "--sweep", "1", "--seed", "-5", "--bound", "0"], {}, 0,
        '{"all_match":true,"instances":1,"mismatches":[]}\n', ""),
    "sample --seed with an Arabic-Indic digit": (
        ["sample", "--triangulation", "{t}", "--bound", "1", "--seed", "\u0661"],
        {"t": SQUARE.to_json()}, 2, "", SAMPLE_USAGE
        + "hiveweb sample: error: argument --seed: expected an integer, got '\u0661'\n"),
    "sample --seed of 30 digits": (
        ["sample", "--triangulation", "{t}", "--bound", "0", "--seed", "9" * 30],
        {"t": SQUARE.to_json()}, 0, hive.hive_doc(zip(SQUARE.keys, [0] * len(SQUARE.keys)),
                                                  SQUARE) + "\n", ""),
    "sample --seed of 5,000 digits": (
        ["sample", "--triangulation", "{t}", "--bound", "1", "--seed", "-" + "7" * 5000],
        {"t": SQUARE.to_json()}, 2, "",
        "hiveweb: --seed: a value of 5000 digits exceeds what int() converts\n"),
    # "--" is no flag's value, in either spelling
    "gamma-dist --to --": (
        ["gamma-dist", "--to", "--"], {}, 2, "", GAMMA_DIST_USAGE
        + "hiveweb gamma-dist: error: argument --to: expected one argument\n"),
    "gamma-dist --out=--": (
        ["gamma-dist", "--to", "1,1", "--out=--"], {}, 2, "", GAMMA_DIST_USAGE
        + "hiveweb gamma-dist: error: argument --out: expected one argument\n"),
    "sample --seed=--": (
        ["sample", "--triangulation", "{t}", "--bound", "1", "--seed=--"],
        {"t": SQUARE.to_json()}, 2, "", SAMPLE_USAGE
        + "hiveweb sample: error: argument --seed: expected one argument\n"),
    # an in-process caller can name an output path with a NUL byte
    "gamma-dist --out with a NUL byte": (
        ["gamma-dist", "--to", "1,1", "--out", "a\0b"], {}, 2, "",
        "hiveweb: cannot write a\0b: embedded null byte\n"),
    "fermat empty region --out with a NUL byte": (
        ["fermat", "--a", "0,0", "--b", "30,0", "--c", "0,-2", "--out", "a\0b"], {}, 2, "",
        "hiveweb: cannot write a\0b: embedded null byte\n"),
    # the complex with no triangles
    "sample without triangles": (
        ["sample", "--triangulation", "{t}", "--bound", "1", "--seed", "0"], {"t": NO_TRIANGLES},
        0, '{"triangulation":{"edges":[],"triangles":[]},"values":{}}\n', ""),
    "hive2web without triangles": (
        ["hive2web", "--hive", "{h}"], {"h": {"values": {}, "triangulation": NO_TRIANGLES}},
        0, '{"coords":{},"triangulation":{"edges":[],"triangles":[]}}\n', ""),
    "web2hive --web without triangles": (
        ["web2hive", "--web", "{w}"], {"w": {"coords": {}, "triangulation": NO_TRIANGLES}},
        0, '{"triangulation":{"edges":[],"triangles":[]},"values":{}}\n', ""),
}


@pytest.mark.parametrize("argv,docs,code,out,err", BRANCHES.values(), ids=BRANCHES)
def test_branch_exit_code_and_output(tmp_path, capsys, monkeypatch, argv, docs, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps a usage line to
    paths = {name: write(tmp_path / f"{name}.json", doc) for name, doc in docs.items()}
    assert invoke(capsys, *(arg.format(**paths) for arg in argv)) == (code, out, err)


EVERY_FLAG = [(command, flag) for command, (_, flags) in cli._COMMANDS.items()
              for flag in [*flags, "--out"]]


@pytest.mark.parametrize("command,flag", EVERY_FLAG, ids=[" ".join(c) for c in EVERY_FLAG])
def test_no_flag_takes_dash_dash_as_its_value(capsys, command, flag):
    for argv in ([command, flag, "--"], [command, f"{flag}=--"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err.splitlines()[-1]) == (
            2, "", f"hiveweb {command}: error: argument {flag}: expected one argument"), argv


def test_flip_hive_values_of_created_vertices_win_over_extra_keys(tmp_path, capsys):
    """Extra keys that name no vertex of the square are carried across the
    flip, but where one names a vertex the flip creates (the new diagonal's
    e:1-3:0, the new cell c:1-2-3), the transported value replaces it."""
    tri_path = write(tmp_path / "t.json", SQUARE.to_json())
    code, sampled, _ = invoke(capsys, "sample", "--triangulation", tri_path,
                              "--bound", "2", "--seed", "1")
    assert code == 0
    doc = json.loads(sampled)
    argv = ["flip", "--triangulation", tri_path, "--edge", "0-2", "--hive"]
    code, plain, err = invoke(capsys, *argv, write(tmp_path / "h.json", doc))
    assert (code, err) == (0, "")
    doc["values"].update({"e:1-3:0": {"thirds": 999}, "c:1-2-3": {"thirds": 998},
                          "e:5-6:0": {"thirds": 7}})
    code, out, err = invoke(capsys, *argv, write(tmp_path / "extra.json", doc))
    assert (code, err) == (0, "")
    values = json.loads(out)["hive"]["values"]
    assert (values["e:1-3:0"], values["c:1-2-3"]) == ({"thirds": 12}, {"thirds": 10})
    assert values == {**json.loads(plain)["hive"]["values"], "e:5-6:0": {"thirds": 7}}


@pytest.mark.parametrize("coords", ["3,2,1,1,1,1,1", "-2,0,1,0,3,0,1", "0,0,0,0,0,0,0"])
def test_single_triangle_hive2web_inverts_web2hive(tmp_path, capsys, coords):
    code, hive_out, _ = invoke(capsys, "web2hive", "--coords", coords)
    assert code == 0
    hive_path = tmp_path / "h.json"
    hive_path.write_text(hive_out)
    code, web_out, err = invoke(capsys, "hive2web", "--hive", str(hive_path))
    assert (code, err) == (0, "")
    assert web_out == canonical(dict(zip("xyztuvw", map(int, coords.split(",")))))


DASHED = {
    "-t.json": SQUARE.to_json(),
    "-h.json": hive_to_json(SQUARE, sample_hive(SQUARE, 2, 0)),
    "-g.json": {"vertices": ["u", "-v"], "arcs": [["u", "-v"]]},
}


@pytest.mark.parametrize("argv", [
    ["flip", "--triangulation", "-t.json", "--edge", "-5~2"],
    ["flip", "--triangulation", "-t.json", "--edge", "0-2", "--hive", "-h.json"],
    ["validate", "--triangulation", "-t.json"],
    ["validate", "--hive", "-h.json"],
    ["validate", "--hive", "-h"],  # a path, not the help flag
    ["validate", "--web", "-w.json"],
    ["hive2web", "--hive", "-h.json", "--triangulation", "-t.json"],
    ["dist", "--graph", "-g.json", "--from", "u", "--to", "-v"],
])
def test_value_flags_take_values_that_start_with_a_dash(tmp_path, monkeypatch, capsys, argv):
    """Edge ids, vertex ids and paths are taken whole after their flag even
    when they start with "-", as the --flag=value form takes them."""
    monkeypatch.chdir(tmp_path)
    for name, doc in DASHED.items():
        write(tmp_path / name, doc)
    code, out, _ = invoke(capsys, "hive2web", "--hive=-h.json")
    (tmp_path / "-w.json").write_text(out)
    joined = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    expected = invoke(capsys, argv[0], *joined)
    assert "usage" not in expected[2]
    assert invoke(capsys, *argv) == expected


def test_out_path_may_start_with_a_dash(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert invoke(capsys, "gamma-dist", "--to", "2,1", "--out", "-o.json") == (0, "", "")
    assert (tmp_path / "-o.json").read_text() == invoke(capsys, "gamma-dist", "--to", "2,1")[1]


# a, b, c and window radius; the first corner outside the window in a, b, c order
OUTSIDE_THE_WINDOW = {
    "a": (("-30,0", "2,0", "0,2", "6"), "-30,0"),
    "b": (("0,0", "30,0", "0,2", "24"), "30,0"),
    "c": (("0,0", "2,0", "0,30", "6"), "0,30"),
    "a and b": (("-30,0", "30,0", "0,2", "6"), "-30,0"),
    "b, just past a huge window": (("0,0", "1000000,0", "0,2", "999999"), "1000000,0"),
}


@pytest.mark.parametrize("corners,outside", OUTSIDE_THE_WINDOW.values(), ids=OUTSIDE_THE_WINDOW)
def test_fermat_refuses_a_corner_outside_the_window_before_building_it(
        capsys, monkeypatch, corners, outside):
    def no_array(*_):
        raise AssertionError("the window was laid out")

    monkeypatch.setattr(metric._LatticeGraph, "_grid", property(no_array))
    monkeypatch.setattr(metric._Window, "_rows", property(no_array))
    monkeypatch.setattr(metric, "_layout", no_array)
    a, b, c, radius = corners
    assert invoke(capsys, "fermat", "--a", a, "--b", b, "--c", c, "--window", radius) == (
        1, canonical({"error": "KeyError", "detail": f'unknown vertex "{outside}"'}), "")


def test_fermat_checks_the_region_before_the_window(capsys, monkeypatch):
    monkeypatch.setattr(metric, "_layout", None)
    code, out, err = invoke(capsys, "fermat", "--a", "0,0", "--b", "-30,0", "--c", "0,-1",
                            "--window", "2")
    assert (code, json.loads(out)["error"], err) == (1, "OmegaEmpty", "")
    with pytest.raises(TypeError):  # a window that holds its corners is searched
        run(["fermat", "--a", "0,0", "--b", "2,0", "--c", "0,2", "--window", "6"])


def test_each_surface_command_runs_the_exported_function(tmp_path, capsys, monkeypatch):
    """``sample``, ``hive2web``, ``flip --hive`` and ``web2hive --web`` call
    the exported functions through their modules, where a wrapper put at the
    module attribute sees each call."""
    calls = {}
    for module, name in ((sampling, "sample_hive"), (web, "hive_to_surface_web"),
                         (hive, "octahedron_transport"), (web, "surface_web_from_json")):
        def counted(*args, _name=name, _call=getattr(module, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _call(*args)

        monkeypatch.setattr(module, name, counted)
    t = write(tmp_path / "t.json", SQUARE.to_json())
    h, w = str(tmp_path / "h.json"), str(tmp_path / "w.json")
    for argv in (["sample", "--triangulation", t, "--bound", "2", "--seed", "0", "--out", h],
                 ["hive2web", "--hive", h, "--out", w],
                 ["flip", "--triangulation", t, "--edge", "0-2", "--hive", h],
                 ["web2hive", "--web", w]):
        assert invoke(capsys, *argv)[0] == 0, argv
    assert calls == {"sample_hive": 1, "hive_to_surface_web": 1, "octahedron_transport": 1,
                     "surface_web_from_json": 1}
