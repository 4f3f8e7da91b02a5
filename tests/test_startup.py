"""A one-shot CLI process pays for every module it imports, so the package's
import path leaves out the modules that only record classes, annotations or
a rarely taken branch would need, and a command imports only the modules it
runs.  argparse (and the ``gettext`` it loads) is imported only to parse an
argv that is not plain, or to word help or a usage error.  The package reads
each export from its submodule on first use, with the names and objects it
exported when it imported them all.  ``tools/startup.py`` measures the cost."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import hiveweb
from hiveweb.cli import run
from hiveweb.surface import build_polygon

UNWANTED = ("dataclasses", "inspect", "typing", "pathlib", "argparse", "gettext")
LOADED = f"sorted(m for m in {UNWANTED!r} if m in sys.modules)"
PROBE = f"import sys, hiveweb.cli; cli = {LOADED}; import hiveweb; print(cli, {LOADED})"
# what surface commands never run; a plain argv needs no argparse
LAZY = ("random", "hiveweb.metric", "hiveweb.surfacoid", "hiveweb.sampling", "argparse",
        "gettext")
# python -m hiveweb ARGV, then the exit code and which of LAZY it loaded
RUN_MODULE = ("import runpy, sys\n"
              "sys.argv[1:] = {argv!r}\n"
              "try:\n"
              "    runpy.run_module('hiveweb', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as exc:\n"
              f"    print(exc.code, sorted(m for m in {LAZY!r} if m in sys.modules))\n")
# what --help prints at width 80
HELP = json.loads(Path(__file__).with_name("golden_usage.json").read_text(
    encoding="utf-8"))["--help"]["stdout"]
# each submodule and the names the package exported from it when it imported them all
EXPORTS = {
    "errors": ("GluingMismatch", "HivewebError", "IncompleteHive", "InconsistentSide",
               "InvalidHive", "InvalidPolygonTriangulation", "InvalidTriangulation",
               "InvalidWebCoords", "NotFlippable", "OmegaEmpty", "SamplingFailed",
               "SelfFoldedUnsupported", "Unreachable"),
    "hive": ("is_in_positive_cone", "octahedron_transport", "rhombi", "tropical_potential",
             "validate_hive"),
    "metric": ("OrientedGraph", "fermat_brute", "fermat_closed_form", "gamma_distance",
               "gamma_window", "shortest_distance"),
    "sampling": ("sample_hive",),
    "surface": ("ThetaVertex", "Triangulation", "build_polygon", "flip_triangulation",
                "quad_frame", "validate_complex"),
    "surfacoid": ("build_net", "oracle_triangle_hive"),
    "thirds": ("Third",),
    "web": ("HiveValues", "SurfaceWeb", "hive_to_surface_web", "hive_to_web_triangle",
            "side_arc_counts", "surface_web_to_hive", "web_to_hive_thirds"),
}
# the 41 exports and, as the eager imports bound them, the 8 submodules
NAMES = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def _python(*argv, cwd=None):
    # without site, which on many hosts imports typing or pathlib itself
    src = str(Path(hiveweb.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, cwd=cwd, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_and_package_import_without_unwanted_modules():
    assert _python("-c", PROBE) == (0, "[] []\n", "")


def test_a_surface_command_imports_only_what_it_runs(tmp_path, capsys):
    t, h = tmp_path / "t.json", str(tmp_path / "h.json")
    t.write_text(json.dumps(build_polygon(4, [(0, 2)]).to_json()))
    assert run(["sample", "--triangulation", str(t), "--bound", "2", "--seed", "1",
                "--out", h]) == 0
    capsys.readouterr()
    assert _python("-c", RUN_MODULE.format(argv=["validate", "--hive", h])) == (
        0, '{"valid":true,"violations":[]}\n0 []\n', "")


def test_an_argv_that_is_not_plain_and_help_import_argparse(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width HELP was recorded at
    assert _python("-c", RUN_MODULE.format(argv=["gamma-dist", "--to=1,1"])) == (
        0, '{"thirds":2}\n' "0 ['argparse', 'gettext', 'hiveweb.metric']\n", "")
    assert _python("-c", RUN_MODULE.format(argv=["--help"])) == (
        0, HELP + "0 ['argparse', 'gettext']\n", "")


def test_the_package_imports_no_submodule_until_an_export_is_read():
    probe = ("import sys, hiveweb\n"
             "def loaded(): return sorted(m for m in sys.modules if 'hiveweb' in m)\n"
             "public = [name for name in dir(hiveweb) if not name.startswith('_')]\n"
             "print(loaded(), public == hiveweb.__all__, loaded())\n"
             "hiveweb.Third; print(loaded())")
    assert _python("-c", probe) == (0, "['hiveweb'] True ['hiveweb']\n"
                                       "['hiveweb', 'hiveweb.errors', 'hiveweb.thirds']\n", "")


def test_the_package_exports_the_same_names_and_objects():
    star = {}
    exec("from hiveweb import *", star)
    del star["__builtins__"]
    assert hiveweb.__all__ == sorted(star) == NAMES
    assert set(NAMES) <= set(dir(hiveweb))
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"hiveweb.{module}")
        assert getattr(hiveweb, module) is star[module] is owner
        for name in names:
            assert getattr(hiveweb, name) is star[name] is getattr(owner, name), name
