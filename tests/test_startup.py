"""A one-shot CLI process pays for every module it imports, so the package's
import path leaves out the modules that only record classes, annotations or
a rarely taken branch would need.  ``tools/startup.py`` measures the cost."""

import os
import subprocess
import sys
from pathlib import Path

import hiveweb

UNWANTED = ("dataclasses", "inspect", "typing", "pathlib")
LOADED = f"sorted(m for m in {UNWANTED!r} if m in sys.modules)"
PROBE = f"import sys, hiveweb.cli; cli = {LOADED}; import hiveweb; print(cli, {LOADED})"


def test_cli_and_package_import_without_unwanted_modules():
    # without site, which on many hosts imports typing or pathlib itself
    src = str(Path(hiveweb.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[] []\n", "")
