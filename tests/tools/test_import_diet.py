"""Importing the package, its CLI and the live plane pulls in no graph library.

``networkx`` is a test-only dependency (the Theorem 2 VF2 check and the
Dijkstra cross-check build their own graphs); it costs ~0.1 s and ~12 MB
per interpreter, which every CLI start and pool worker would pay.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_import_repro_does_not_import_networkx():
    code = ("import repro, repro.cli, repro.live; import sys; "
            "assert 'networkx' not in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
