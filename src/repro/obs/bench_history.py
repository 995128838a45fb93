"""The git revision a benchmark record is stamped with.

All that is left of the bench-history system the ledger
(``benchmarks/ledger/``, ``BENCHMARK.json``) superseded: the ledger's
driver imports :func:`current_git_rev` from this path.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

__all__ = ["current_git_rev"]


def current_git_rev(cwd: str | Path | None = None) -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"
