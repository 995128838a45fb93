"""Causal span trees and critical-path analysis over the message plane.

The engine threads a ``(trace_id, span_id, parent_id)`` context through
every protocol message (:mod:`repro.net.messages`) and brackets each
unit of attributable work with ``SPAN_START`` / ``SPAN_END`` events:
the probe-cycle root (``cycle``), every message in flight
(``msg:<TYPE>``), every receive-side handler (``proc:<TYPE>``) and the
retry timers (``timer:<kind>``).  :class:`SpanAssembler` is the
:class:`~repro.obs.trace.TraceConsumer` that folds that event stream
back into **span trees** — one tree per probe cycle, edges being
causality (a child was *caused by* its parent, not *contained in* it;
a NOTIFY fan-out keeps running after its cycle root already closed).

A trace's assembly state is dropped the moment its tree completes
(root closed and no span of the trace still open); the tree itself is
kept for the analysis.

Liveness flags (``python -m repro.obs spans`` / ``critpath`` exit 1 on
every one except half-open spans):

* **orphan roots** — a root span that never closed (``finalize_trace``
  closes every in-flight root with ``end-of-run``, so only a truncated
  or buggy trace has one);
* **half-open spans** — a non-root span never closed: the run horizon
  cutting off in-flight messages, or over real UDP a silently dropped
  datagram — *measured* loss, reported but not an error;
* **unmatched ends / double closes / detached spans** — an end with no
  start, a second end, or a span whose parent never appeared:
  instrumentation bugs;
* **half-open / over-resolved xids, orphan outcomes** — the post-mortem
  :func:`assemble_spans` folds every two-phase exchange in the same
  pass: each ``EXCHANGE_PREPARE`` must resolve as exactly one
  ``COMMIT`` / ``ABORT`` / ``TIMEOUT``.  Inline commits (``xid = -1``)
  and late replies (a ``VAR_REPLY`` after its walk timed out) are
  counted, not failed.  :class:`SpanAssembler` alone tracks no xids.

:func:`critical_path` decomposes one completed tree into the segments
that actually determined the root's duration — the chain to the
latest-finishing descendant, each hop categorized as ``transit``
(``msg:`` spans), ``process`` (``proc:`` spans), ``timer`` (waits
ending in a ``timer:`` span, i.e. retry back-off) or ``wait`` (time at
a node not covered by any child).  Segments are clamped to the root's
window and sum exactly to the root duration, so percentages are
well-defined — the per-hop attribution the paper's locality argument is
about: a location-aware overlay should shrink the ``transit`` share.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.events import (
    Event,
    ExchangeAbortEvent,
    ExchangeCommitEvent,
    ExchangePrepareEvent,
    ExchangeTimeoutEvent,
    MsgDeliverEvent,
    MsgTimeoutEvent,
    SpanEndEvent,
    SpanStartEvent,
)

__all__ = [
    "CriticalSegment",
    "Span",
    "SpanAnalysis",
    "SpanAssembler",
    "SpanTree",
    "analysis_to_dict",
    "assemble_spans",
    "critical_path",
    "dump_analysis",
    "path_totals",
    "render_critical_paths",
    "render_span_trees",
]

#: Critical-path segment categories, in rendering order.
CATEGORIES = ("transit", "process", "timer", "wait")

#: How a prepared exchange ended, in rendering order.
OUTCOMES = ("commit", "abort", "timeout", "half-open")

_OUTCOME_OF: dict[type[Event], str] = {
    ExchangeCommitEvent: "commit",
    ExchangeAbortEvent: "abort",
    ExchangeTimeoutEvent: "timeout",
}


@dataclass
class Span:
    """One unit of causally attributed work."""

    trace: int
    span: int
    parent: int
    name: str
    node: int
    start: float
    end: float | None = None
    status: str = ""
    children: list["Span"] = field(default_factory=list)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start


@dataclass
class SpanTree:
    """One assembled trace: the root span plus every descendant.

    ``complete`` means the root closed *and* no span of the trace was
    still open — a tree flushed at end-of-run with half-open message
    spans (real datagram loss) is kept but marked incomplete.
    """

    trace: int
    root: Span
    n_spans: int
    complete: bool

    @property
    def depth(self) -> int:
        """Longest root-to-leaf chain (a root alone has depth 1)."""
        def walk(span: Span) -> int:
            return 1 + max((walk(c) for c in span.children), default=0)
        return walk(self.root)


@dataclass
class SpanAnalysis:
    """Everything :class:`SpanAssembler` derives from one trace stream."""

    trees: list[SpanTree] = field(default_factory=list)
    #: Root spans that never closed — a protocol/instrumentation bug.
    orphans: list[tuple[int, int]] = field(default_factory=list)  # (trace, span)
    #: Non-root spans that never closed — horizon cutoff or real loss.
    half_open: list[tuple[int, int]] = field(default_factory=list)
    unmatched_ends: list[tuple[int, int]] = field(default_factory=list)
    double_closed: list[tuple[int, int]] = field(default_factory=list)
    #: Spans whose parent never appeared (attached under the root).
    detached: list[tuple[int, int]] = field(default_factory=list)
    #: Prepared xids by outcome (:data:`OUTCOMES`); only the post-mortem
    #: :func:`assemble_spans` fills this and the xid fields below.
    exchanges: dict[str, int] = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))
    half_open_xids: list[int] = field(default_factory=list)
    over_resolved: list[int] = field(default_factory=list)  # >1 outcome
    orphan_outcomes: list[int] = field(default_factory=list)  # no prepare
    #: ``(time, initiator, cycle)`` of each VAR_REPLY after its walk timed out.
    late_replies: list[tuple[float, int, int]] = field(default_factory=list)
    inline_commits: int = 0

    @property
    def root_status_counts(self) -> dict[str, int]:
        counts: Counter[str] = Counter()
        for tree in self.trees:
            counts[tree.root.status or "open"] += 1
        return dict(counts)

    @property
    def complete_trees(self) -> list[SpanTree]:
        return [t for t in self.trees if t.complete]

    @property
    def clean(self) -> bool:
        """True when every root closed, no instrumentation bug showed
        and every prepared xid resolved exactly once.

        ``half_open`` spans do not fail the analysis — over real UDP
        they are measured loss, and in the simulator only the run
        horizon produces them.
        """
        return (not self.orphans and not self.unmatched_ends
                and not self.double_closed and not self.detached
                and not self.half_open_xids and not self.over_resolved
                and not self.orphan_outcomes)


class _TraceState:
    """Assembly state of one still-incomplete trace."""

    __slots__ = ("spans", "open_count", "root")

    def __init__(self) -> None:
        self.spans: dict[int, Span] = {}
        self.open_count = 0
        self.root: Span | None = None


class SpanAssembler:
    """Consumer reassembling span trees from the event stream, one
    event at a time; :func:`assemble_spans` drives it over a trace."""

    def __init__(self) -> None:
        self.completed = 0
        self._active: dict[int, _TraceState] = {}
        self._analysis = SpanAnalysis()
        self._finished = False

    # -- TraceConsumer ----------------------------------------------------

    def on_event(self, event: Event) -> None:
        if isinstance(event, SpanStartEvent):
            state = self._active.get(event.trace)
            if state is None:
                state = self._active[event.trace] = _TraceState()
            span = Span(trace=event.trace, span=event.span,
                        parent=event.parent, name=event.name,
                        node=event.node, start=event.time)
            state.spans[event.span] = span
            state.open_count += 1
            if event.parent < 0:
                state.root = span
        elif isinstance(event, SpanEndEvent):
            state = self._active.get(event.trace)
            span = None if state is None else state.spans.get(event.span)
            if state is None or span is None:
                self._analysis.unmatched_ends.append((event.trace, event.span))
                return
            if span.end is not None:
                self._analysis.double_closed.append((event.trace, event.span))
                return
            span.end = event.time
            span.status = event.status
            state.open_count -= 1
            if (state.root is not None and state.root.end is not None
                    and state.open_count == 0):
                self._emit(event.trace, state, complete=True)

    def finish(self, end_time: float) -> None:
        """Flush still-open traces: open roots become orphans, open
        non-root spans are recorded half-open."""
        if self._finished:
            return
        self._finished = True
        for trace in sorted(self._active):
            state = self._active[trace]
            for span_id in sorted(state.spans):
                span = state.spans[span_id]
                if span.open:
                    bucket = (self._analysis.orphans if span.parent < 0
                              else self._analysis.half_open)
                    bucket.append((trace, span_id))
            if state.root is not None:
                self._emit(trace, state, complete=False)
            else:
                # no root ever appeared: every span is detached
                for span_id in sorted(state.spans):
                    self._analysis.detached.append((trace, span_id))
        self._active.clear()
        self._analysis.trees.sort(key=lambda t: (t.root.start, t.trace))

    # -- assembly ---------------------------------------------------------

    def _emit(self, trace: int, state: _TraceState, *, complete: bool) -> None:
        root = state.root
        assert root is not None
        for span_id in sorted(state.spans):
            span = state.spans[span_id]
            if span is root:
                continue
            parent = state.spans.get(span.parent)
            if parent is None:
                # causality gap (should not happen in sim): keep the
                # span visible under the root and flag it
                self._analysis.detached.append((trace, span_id))
                parent = root
            parent.children.append(span)
        for span in state.spans.values():
            span.children.sort(key=lambda s: (s.start, s.span))
        tree = SpanTree(trace=trace, root=root, n_spans=len(state.spans),
                        complete=complete)
        self.completed += complete
        self._analysis.trees.append(tree)
        if not self._finished:
            del self._active[trace]

    def result(self) -> SpanAnalysis:
        """The finished analysis (call after :meth:`finish`)."""
        if not self._finished:
            raise RuntimeError("SpanAssembler.result() before finish()")
        return self._analysis


def assemble_spans(events: Iterable[Event],
                   end_time: float | None = None) -> SpanAnalysis:
    """Fold a buffered trace into a :class:`SpanAnalysis`: span trees
    plus the per-xid exchange fold (see module docs).

    ``end_time`` defaults to the last event's timestamp (0.0 for an
    empty trace) — the post-mortem analogue of the streaming path.
    """
    assembler = SpanAssembler()
    prepared: set[int] = set()
    outcomes: dict[int, str] = {}
    over_resolved: list[int] = []
    walk_timeouts: set[tuple[int, int]] = set()  # (initiator, cycle)
    late_replies: list[tuple[float, int, int]] = []
    inline_commits = 0
    last = 0.0
    for ev in events:
        assembler.on_event(ev)
        last = ev.time
        if isinstance(ev, ExchangePrepareEvent):
            prepared.add(ev.xid)
        elif isinstance(ev, (ExchangeCommitEvent, ExchangeAbortEvent,
                             ExchangeTimeoutEvent)):
            if ev.xid < 0:  # inline engines: no prepare to match
                inline_commits += isinstance(ev, ExchangeCommitEvent)
            elif ev.xid not in outcomes:
                outcomes[ev.xid] = _OUTCOME_OF[type(ev)]
            elif ev.xid not in over_resolved:
                over_resolved.append(ev.xid)
        elif isinstance(ev, MsgTimeoutEvent) and ev.kind == "walk":
            walk_timeouts.add((ev.u, ev.tag))
        elif (isinstance(ev, MsgDeliverEvent) and ev.mtype == "VAR_REPLY"
              and (ev.dst, ev.tag) in walk_timeouts):
            late_replies.append((ev.time, ev.dst, ev.tag))
    assembler.finish(end_time if end_time is not None else last)
    analysis = assembler.result()
    for xid in prepared:
        analysis.exchanges[outcomes.get(xid, "half-open")] += 1
    analysis.half_open_xids = sorted(prepared - set(outcomes))
    analysis.over_resolved = over_resolved
    analysis.orphan_outcomes = sorted(set(outcomes) - prepared)
    analysis.late_replies = late_replies
    analysis.inline_commits = inline_commits
    return analysis


# -- critical path --------------------------------------------------------


@dataclass(frozen=True)
class CriticalSegment:
    """One stretch of the chain that determined the root's duration."""

    category: str  # "transit" | "process" | "timer" | "wait"
    name: str
    node: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def critical_path(tree: SpanTree) -> list[CriticalSegment]:
    """Decompose a completed tree into its dominating segments.

    Follows the chain from the root to its latest-finishing descendant
    (ties broken by span id, so the decomposition is deterministic),
    clamps every span to the root's window, and attributes the gaps: a
    gap closed by a ``timer:`` span is retry back-off, any other gap is
    ``wait`` at the initiator.  The segments partition
    ``[root.start, root.end]`` exactly.
    """
    root = tree.root
    if root.end is None:
        raise ValueError(f"trace {tree.trace}: root span never closed")

    def latest_end(span: Span) -> float:
        assert span.end is not None
        return max(
            min(span.end, root.end),
            max((latest_end(c) for c in span.children if c.end is not None),
                default=0.0),
        )

    chain: list[Span] = []
    current = root
    while True:
        candidates = [c for c in current.children
                      if c.end is not None and c.start <= root.end]
        if not candidates:
            break
        current = max(candidates, key=lambda c: (latest_end(c), -c.span))
        chain.append(current)

    segments: list[CriticalSegment] = []
    cursor = root.start
    for span in chain:
        assert span.end is not None
        start = max(span.start, cursor)
        end = min(span.end, root.end)
        if span.start > cursor:
            category = "timer" if span.name.startswith("timer:") else "wait"
            segments.append(CriticalSegment(
                category=category, name=f"before {span.name}",
                node=span.node, start=cursor, end=min(span.start, root.end)))
            cursor = min(span.start, root.end)
        if end > start:
            segments.append(CriticalSegment(
                category=_category(span.name), name=span.name,
                node=span.node, start=start, end=end))
            cursor = end
    if cursor < root.end:
        segments.append(CriticalSegment(category="wait", name="at root",
                                        node=root.node, start=cursor,
                                        end=root.end))
    return segments


def _category(name: str) -> str:
    if name.startswith("msg:"):
        return "transit"
    if name.startswith("proc:"):
        return "process"
    if name.startswith("timer:"):
        return "timer"
    return "wait"


def path_totals(segments: Sequence[CriticalSegment]) -> dict[str, float]:
    """Per-category seconds of one critical path (every category keyed)."""
    totals = dict.fromkeys(CATEGORIES, 0.0)
    for seg in segments:
        totals[seg.category] += seg.duration
    return totals


# -- rendering ------------------------------------------------------------


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if span.end is None:
        window = f"[{span.start:.3f}s → …]"
        status = "OPEN"
    else:
        window = f"[{span.start:.3f}s → {span.end:.3f}s]"
        status = span.status
    lines.append(f"{pad}{span.name} @n{span.node} {window} {status}")
    for child in span.children:
        _render_span(child, depth + 1, lines)


def _exchange_lines(analysis: SpanAnalysis) -> list[str]:
    """The 2PC summary line plus one line per liveness flag raised."""
    counts = analysis.exchanges
    lines = [
        f"{sum(counts.values())} two-phase exchanges: {counts['commit']} committed, "
        f"{counts['abort']} aborted, {counts['timeout']} timed out, "
        f"{counts['half-open']} half-open"
    ]
    if analysis.inline_commits:
        lines.append(f"{analysis.inline_commits} inline commits (no 2PC, xid=-1)")
    if analysis.late_replies:
        lines.append(f"{len(analysis.late_replies)} late VAR_REPLYs "
                     "(walk already timed out)")
    if analysis.over_resolved:
        lines.append(f"PROTOCOL BUG: xids resolved twice: {analysis.over_resolved}")
    if analysis.orphan_outcomes:
        lines.append(f"PROTOCOL BUG: outcomes without prepare: {analysis.orphan_outcomes}")
    if analysis.half_open_xids:
        lines.append(f"HALF-OPEN xids: {analysis.half_open_xids}")
    return lines


def render_span_trees(analysis: SpanAnalysis, *, limit: int | None = 10) -> str:
    """Text rendering for ``python -m repro.obs spans``."""
    lines: list[str] = []
    statuses = ", ".join(f"{k}: {v}" for k, v in
                         sorted(analysis.root_status_counts.items()))
    lines.append(
        f"{len(analysis.trees)} span trees "
        f"({len(analysis.complete_trees)} complete) — roots {statuses or '-'}"
    )
    lines += _exchange_lines(analysis)
    if analysis.orphans:
        lines.append(f"ORPHAN roots (never closed): {analysis.orphans[:20]}"
                     + (" …" if len(analysis.orphans) > 20 else ""))
    if analysis.half_open:
        lines.append(f"{len(analysis.half_open)} half-open spans "
                     "(in flight at run end, or lost on the real wire)")
    if analysis.unmatched_ends:
        lines.append(f"INSTRUMENTATION BUG: ends without start: "
                     f"{analysis.unmatched_ends[:20]}")
    if analysis.double_closed:
        lines.append(f"INSTRUMENTATION BUG: spans closed twice: "
                     f"{analysis.double_closed[:20]}")
    if analysis.detached:
        lines.append(f"DETACHED spans (parent unknown): {analysis.detached[:20]}")
    shown = analysis.trees
    if limit is not None and len(shown) > limit:
        lines.append(f"(showing first {limit} of {len(shown)} trees)")
        shown = shown[:limit]
    for tree in shown:
        flag = "" if tree.complete else "  [INCOMPLETE]"
        lines.append(f"trace {tree.trace} — {tree.n_spans} spans, "
                     f"depth {tree.depth}{flag}")
        _render_span(tree.root, 1, lines)
    return "\n".join(lines)


def render_critical_paths(analysis: SpanAnalysis, *,
                          limit: int | None = 10) -> str:
    """Text rendering for ``python -m repro.obs critpath``."""
    lines: list[str] = []
    complete = analysis.complete_trees
    grand = dict.fromkeys(CATEGORIES, 0.0)
    per_tree: list[tuple[SpanTree, list[CriticalSegment], dict[str, float]]] = []
    for tree in complete:
        segments = critical_path(tree)
        totals = path_totals(segments)
        for cat in CATEGORIES:
            grand[cat] += totals[cat]
        per_tree.append((tree, segments, totals))
    total_s = sum(grand.values())
    share = ", ".join(
        f"{cat} {grand[cat]:.3f}s"
        + (f" ({100.0 * grand[cat] / total_s:.1f}%)" if total_s > 0 else "")
        for cat in CATEGORIES
    )
    lines.append(f"{len(complete)} complete trees "
                 f"({len(analysis.trees) - len(complete)} incomplete skipped) "
                 f"— critical path: {share}")
    lines += _exchange_lines(analysis)
    shown = per_tree
    if limit is not None and len(shown) > limit:
        lines.append(f"(showing first {limit} of {len(shown)} paths)")
        shown = shown[:limit]
    for tree, segments, totals in shown:
        root = tree.root
        assert root.end is not None
        lines.append(
            f"trace {tree.trace}: {root.name} @n{root.node} "
            f"{root.end - root.start:.3f}s — "
            + ", ".join(f"{cat} {totals[cat]:.3f}s" for cat in CATEGORIES)
        )
        for seg in segments:
            lines.append(f"  {seg.start:>10.3f}s {seg.duration:>8.3f}s "
                         f"{seg.category:<8} {seg.name:<24} n{seg.node}")
    return "\n".join(lines)


def analysis_to_dict(analysis: SpanAnalysis) -> dict[str, Any]:
    """JSON-ready summary for ``--json-out`` (and the CI artifact)."""
    grand = dict.fromkeys(CATEGORIES, 0.0)
    depths: list[int] = []
    for tree in analysis.complete_trees:
        depths.append(tree.depth)
        for cat, secs in path_totals(critical_path(tree)).items():
            grand[cat] += secs
    return {
        "trees": len(analysis.trees),
        "complete": len(analysis.complete_trees),
        "root_status_counts": analysis.root_status_counts,
        "max_depth": max(depths, default=0),
        "orphans": len(analysis.orphans),
        "half_open": len(analysis.half_open),
        "unmatched_ends": len(analysis.unmatched_ends),
        "double_closed": len(analysis.double_closed),
        "detached": len(analysis.detached),
        "exchanges": dict(analysis.exchanges),
        "half_open_xids": len(analysis.half_open_xids),
        "over_resolved": len(analysis.over_resolved),
        "orphan_outcomes": len(analysis.orphan_outcomes),
        "late_replies": len(analysis.late_replies),
        "inline_commits": analysis.inline_commits,
        "critical_path_seconds": {k: round(v, 6) for k, v in grand.items()},
        "clean": analysis.clean,
    }


def dump_analysis(analysis: SpanAnalysis, path: str | Path) -> None:
    """Write the JSON summary to ``path``."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(analysis_to_dict(analysis), indent=2,
                              sort_keys=True) + "\n", encoding="utf-8")
