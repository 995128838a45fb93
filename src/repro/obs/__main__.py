"""``python -m repro.obs`` — the trace analyzer CLI.

* ``spans TRACE.jsonl`` / ``critpath TRACE.jsonl`` — the one trace
  checker: causal span trees (one per probe cycle) or their per-cycle
  critical paths (transit / process / timer back-off / wait), plus the
  exactly-once fold of every 2PC exchange.  Exit 0 clean, 1 on an
  orphan root, an instrumentation bug or a PREPARE that did not resolve
  exactly once, 2 (one stderr line) on an unreadable trace;
  ``--json-out`` writes the summary.

A run's kernel profile lives in its run record: ``repro show`` renders
it and ``repro compare`` diffs it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.obs.events import load_trace
from repro.obs.spans import (
    assemble_spans,
    dump_analysis,
    render_critical_paths,
    render_span_trees,
)


def _cmd_trace(args: argparse.Namespace) -> int:
    """``spans`` / ``critpath``: 0 clean, 1 violation, 2 unreadable trace."""
    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    analysis = assemble_spans(events)
    print(args.render(analysis, limit=args.limit))
    if args.json_out is not None:
        dump_analysis(analysis, args.json_out)
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0 if analysis.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze repro trace files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, render, what, shown in (
        ("spans", render_span_trees,
         "reassemble causal span trees and 2PC exchanges from a trace", "trees"),
        ("critpath", render_critical_paths,
         "critical-path decomposition per probe cycle", "paths"),
    ):
        p_trace = sub.add_parser(name, help=what)
        p_trace.add_argument("trace", help="JSONL trace file (from --trace)")
        p_trace.add_argument(
            "--limit", type=int, default=10,
            help=f"max {shown} to print (default 10; -1 for all)",
        )
        p_trace.add_argument(
            "--json-out", default=None, metavar="PATH",
            help="also write the JSON analysis summary to PATH",
        )
        p_trace.set_defaults(func=_cmd_trace, render=render)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.limit is not None and args.limit < 0:
        args.limit = None
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `... spans t.jsonl | head`
        sys.stderr.close()  # suppress the interpreter's epipe warning
        return 0


if __name__ == "__main__":
    sys.exit(main())
