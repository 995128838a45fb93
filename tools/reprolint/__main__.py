"""reprolint CLI.

Usage (from the repo root)::

    python -m tools.reprolint                  # analyze src/repro
    python -m tools.reprolint --root some/tree

Findings print one per line as ``path:line:col: RULE message`` (the form
``.github/reprolint-matcher.json`` turns into PR annotations).  Exit
codes: 0 clean, 1 findings (rule violations, unparseable modules), 3
usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.reprolint.engine import analyze

DEFAULT_ROOT = "src/repro"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint", description="PROP reproduction invariant analyzer"
    )
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help="package tree to analyze (default: src/repro)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root = Path(args.root)
    if not root.is_dir():
        print(f"reprolint: analysis root {root} is not a directory", file=sys.stderr)
        return 3
    findings = analyze(root)
    for f in findings:
        print(f.render())
    print(f"reprolint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
