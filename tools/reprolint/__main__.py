"""reprolint CLI.

Usage (from the repo root)::

    python -m tools.reprolint                  # analyze src/repro
    python -m tools.reprolint --list-rules
    python -m tools.reprolint --select D1,D3 --root some/tree

Findings print one per line as ``path:line:col: RULE message`` (the form
``.github/reprolint-matcher.json`` turns into PR annotations).  Exit
codes: 0 clean, 1 findings (rule violations, dead suppressions,
unparseable modules), 3 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.reprolint.engine import analyze, iter_rules

DEFAULT_ROOT = "src/repro"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint", description="PROP reproduction invariant analyzer"
    )
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help="package tree to analyze (default: src/repro)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids (default: all)")
    parser.add_argument("--list-rules", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.id}  {rule.name}: {rule.description}")
        return 0

    root = Path(args.root)
    if not root.is_dir():
        print(f"reprolint: analysis root {root} is not a directory", file=sys.stderr)
        return 3

    select = [s.strip() for s in args.select.split(",")] if args.select else None
    findings = analyze(root, select=select)
    for f in findings:
        print(f.render())
    print(f"reprolint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
