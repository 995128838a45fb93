"""``python -m repro.obs`` — the trace/report analyzer CLI.

Subcommands:

* ``timeline TRACE.jsonl`` — reconstruct the two-phase exchange
  timelines from a trace, flagging half-open exchanges and late
  replies.  Exits non-zero when the exactly-once invariant is broken.
* ``spans TRACE.jsonl`` — reassemble the causal span trees (one per
  probe cycle), flagging orphan roots and instrumentation bugs with
  the same exit-code discipline; ``--json-out`` writes the summary.
* ``critpath TRACE.jsonl`` — per-cycle critical-path decomposition:
  transit vs. process vs. timer back-off vs. wait, attributed per hop.
* ``diff A.json B.json`` — metric-by-metric comparison of two run
  reports.
* ``render REPORT.json [-o OUT.md]`` — render a run report to
  markdown (stdout by default).  Both exit 2 with one stderr line on
  an unreadable or malformed report.
* ``prof PROFILE.json`` — render a kernel profile (from ``repro run
  --kernel-profile``) as a top-N attribution table; ``--collapsed`` /
  ``--speedscope`` write flamegraph exports.  ``prof diff A.json
  B.json`` prints the per-category A/B deltas.  Exit codes: 0 ok,
  1 category mismatch against the closed registry, 2 unreadable or
  truncated profile.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.obs.analyze import load_trace, reconstruct_timelines, render_timelines
from repro.obs.report import RunReport, diff_reports, load_report, render_markdown
from repro.obs.spans import (
    assemble_spans,
    dump_analysis,
    render_critical_paths,
    render_span_trees,
)


def _cmd_timeline(args: argparse.Namespace) -> int:
    analysis = reconstruct_timelines(load_trace(args.trace))
    print(render_timelines(analysis, limit=args.limit))
    return 0 if analysis.clean else 1


def _cmd_spans(args: argparse.Namespace) -> int:
    analysis = assemble_spans(load_trace(args.trace))
    print(render_span_trees(analysis, limit=args.limit))
    if args.json_out is not None:
        dump_analysis(analysis, args.json_out)
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0 if analysis.clean else 1


def _cmd_critpath(args: argparse.Namespace) -> int:
    analysis = assemble_spans(load_trace(args.trace))
    print(render_critical_paths(analysis, limit=args.limit))
    if args.json_out is not None:
        dump_analysis(analysis, args.json_out)
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0 if analysis.clean else 1


def _load_reports(command: str, *paths: str) -> list[RunReport] | None:
    """The reports at ``paths``, or None after one stderr line (exit 2)."""
    try:
        return [load_report(path) for path in paths]
    except (OSError, ValueError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _cmd_diff(args: argparse.Namespace) -> int:
    reports = _load_reports("diff", args.a, args.b)
    if reports is None:
        return 2
    print(diff_reports(*reports))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    reports = _load_reports("render", args.report)
    if reports is None:
        return 2
    text = render_markdown(reports[0])
    if args.output is None:
        print(text, end="")
    else:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    return 0


def _cmd_prof(args: argparse.Namespace) -> int:
    from repro.obs.prof import (
        CategoryMismatchError,
        KernelProfile,
        ProfileError,
        diff_table,
        validate_speedscope,
    )

    paths = args.paths
    diff_mode = paths and paths[0] == "diff"
    if diff_mode:
        paths = paths[1:]
        if len(paths) != 2:
            print("prof diff takes exactly two profile paths", file=sys.stderr)
            return 2
    elif len(paths) != 1:
        print("prof takes one profile path (or 'diff A B')", file=sys.stderr)
        return 2
    try:
        profiles = [KernelProfile.load(p) for p in paths]
        if diff_mode:
            print(diff_table(profiles[0], profiles[1]))
            return 0
        profile = profiles[0]
        print(profile.table(top=args.top))
        if args.collapsed is not None:
            Path(args.collapsed).write_text(profile.collapsed(), encoding="utf-8")
            print(f"wrote {args.collapsed}", file=sys.stderr)
        if args.speedscope is not None:
            doc = profile.speedscope(name=str(paths[0]))
            validate_speedscope(doc)
            Path(args.speedscope).write_text(
                json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {args.speedscope}", file=sys.stderr)
    except CategoryMismatchError as exc:
        print(f"prof: {exc}", file=sys.stderr)
        return 1
    except ProfileError as exc:
        print(f"prof: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze repro trace files and run reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_timeline = sub.add_parser(
        "timeline", help="reconstruct 2PC exchange timelines from a trace"
    )
    p_timeline.add_argument("trace", help="JSONL trace file (from --trace)")
    p_timeline.add_argument(
        "--limit", type=int, default=40,
        help="max timelines to print (default 40; -1 for all)",
    )
    p_timeline.set_defaults(func=_cmd_timeline)

    p_spans = sub.add_parser(
        "spans", help="reassemble causal span trees from a trace"
    )
    p_spans.add_argument("trace", help="JSONL trace file (from --trace)")
    p_spans.add_argument(
        "--limit", type=int, default=10,
        help="max trees to print (default 10; -1 for all)",
    )
    p_spans.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the JSON analysis summary to PATH",
    )
    p_spans.set_defaults(func=_cmd_spans)

    p_crit = sub.add_parser(
        "critpath", help="critical-path decomposition per probe cycle"
    )
    p_crit.add_argument("trace", help="JSONL trace file (from --trace)")
    p_crit.add_argument(
        "--limit", type=int, default=10,
        help="max paths to print (default 10; -1 for all)",
    )
    p_crit.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the JSON analysis summary to PATH",
    )
    p_crit.set_defaults(func=_cmd_critpath)

    p_diff = sub.add_parser("diff", help="diff two run reports")
    p_diff.add_argument("a", help="baseline report JSON")
    p_diff.add_argument("b", help="comparison report JSON")
    p_diff.set_defaults(func=_cmd_diff)

    p_render = sub.add_parser("render", help="render a run report to markdown")
    p_render.add_argument("report", help="report JSON (from --report)")
    p_render.add_argument("-o", "--output", default=None, help="output .md path")
    p_render.set_defaults(func=_cmd_render)

    p_prof = sub.add_parser(
        "prof", help="render or diff kernel profiles (--kernel-profile output)"
    )
    p_prof.add_argument(
        "paths", nargs="+", metavar="PROFILE",
        help="profile JSON path, or 'diff' followed by two paths",
    )
    p_prof.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N widest categories (default: all)",
    )
    p_prof.add_argument(
        "--collapsed", default=None, metavar="PATH",
        help="write collapsed-stack text for flamegraph tooling",
    )
    p_prof.add_argument(
        "--speedscope", default=None, metavar="PATH",
        help="write a speedscope-compatible JSON profile",
    )
    p_prof.set_defaults(func=_cmd_prof)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "limit", None) is not None and args.limit < 0:
        args.limit = None
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `... timeline t.jsonl | head`
        sys.stderr.close()  # suppress the interpreter's epipe warning
        return 0


if __name__ == "__main__":
    sys.exit(main())
