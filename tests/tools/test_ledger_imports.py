"""The benchmark ledger's imports are part of the program's contract.

``benchmarks/ledger/run.py`` imports its sibling modules and, through
them, parts of ``repro`` (``repro.obs.bench_history`` for the git stamp,
the harness, the live transport).  A change that deletes or renames any
of them breaks every benchmark run, so this test imports the ledger's
modules the way ``run.py`` does, in a fresh interpreter, and calls the
environment stamp each measured run writes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
LEDGER = REPO / "benchmarks" / "ledger"

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
run._import_program()
import defs, micro, reps, spans
print(json.dumps(run._environment(0)))
"""


def test_the_ledger_imports_and_stamps_its_environment():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(LEDGER)],
        cwd=REPO, capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.returncode == 0, out.stderr
    env = json.loads(out.stdout.strip().splitlines()[-1])
    assert env["seed"] == 0
    assert env["git_rev"]
    assert set(env) >= {"python", "numpy", "scipy", "nproc"}
