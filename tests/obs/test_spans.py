"""Causal span trees and the 2PC exchange fold: assembly, liveness
flags, critical path, CLI.

The synthetic-stream tests pin the assembler's semantics exactly; the
fixture-backed tests (30%-loss FaultyTransport run, session-scoped)
assert the span-tree invariants and the exactly-once exchange invariant
hold under real fault injection; the CLI tests pin the exit-code
discipline: 0 clean, 1 violation, 2 unreadable trace.
"""

import json
from collections import Counter

import pytest

from tests.obs.conftest import LOSSY_TRACED
from repro.harness.sweep import run_sweep
from repro.cli import main as repro_main
from repro.obs.events import (
    ExchangeAbortEvent,
    ExchangeCommitEvent,
    ExchangePrepareEvent,
    ExchangeTimeoutEvent,
    MsgDeliverEvent,
    MsgTimeoutEvent,
    SpanEndEvent,
    SpanStartEvent,
    load_trace,
)
from repro.obs.spans import (
    SpanAssembler,
    analysis_to_dict,
    assemble_spans,
    critical_path,
    path_totals,
    render_critical_paths,
    render_span_trees,
)
from repro.obs.trace import write_events_jsonl


def _start(t, trace, span, parent, name, node=0):
    return SpanStartEvent(time=t, trace=trace, span=span, parent=parent,
                          name=name, node=node)


def _end(t, trace, span, status="ok"):
    return SpanEndEvent(time=t, trace=trace, span=span, status=status)


#: One complete probe-cycle-shaped trace: root -> msg -> proc, with the
#: proc span closing before the msg span (transports close the message
#: span after the handler ran).
COMPLETE = [
    _start(0.0, 1, 1, -1, "cycle", node=3),
    _start(0.0, 1, 2, 1, "msg:WALK", node=3),
    _start(0.4, 1, 3, 2, "proc:WALK", node=7),
    _end(0.4, 1, 3),
    _end(0.4, 1, 2),
    _end(1.0, 1, 1, status="ok"),
]


class TestAssembler:
    def test_complete_tree(self):
        analysis = assemble_spans(COMPLETE)
        assert analysis.clean
        (tree,) = analysis.trees
        assert tree.complete and tree.n_spans == 3 and tree.depth == 3
        assert tree.root.name == "cycle" and tree.root.status == "ok"
        assert analysis.root_status_counts == {"ok": 1}

    def test_child_may_outlive_parent(self):
        """Causality, not containment: a NOTIFY fan-out keeps running
        after the cycle root closed; the tree completes only when the
        last descendant does."""
        events = [
            _start(0.0, 1, 1, -1, "cycle"),
            _start(0.9, 1, 2, 1, "msg:NOTIFY"),
            _end(1.0, 1, 1),
        ]
        assembler = SpanAssembler()
        for ev in events[:3]:
            assembler.on_event(ev)
        assert assembler.completed == 0  # root closed, child still open
        assembler.on_event(_end(1.5, 1, 2))
        assert assembler.completed == 1  # now it sealed
        assembler.finish(2.0)
        (tree,) = assembler.result().trees
        assert tree.complete
        assert tree.root.children[0].end == 1.5 > tree.root.end

    def test_orphan_root_fails_the_analysis(self):
        analysis = assemble_spans(COMPLETE[:-1])  # root never closes
        assert analysis.orphans == [(1, 1)]
        assert not analysis.clean
        (tree,) = analysis.trees
        assert not tree.complete

    def test_half_open_non_root_is_reported_not_failed(self):
        events = [
            _start(0.0, 1, 1, -1, "cycle"),
            _start(0.1, 1, 2, 1, "msg:WALK"),
            _end(1.0, 1, 1),
        ]
        analysis = assemble_spans(events)
        assert analysis.half_open == [(1, 2)]
        assert analysis.clean  # real loss / horizon cutoff is not a bug
        assert not analysis.trees[0].complete

    def test_unmatched_end_and_double_close_are_bugs(self):
        events = [
            _start(0.0, 1, 1, -1, "cycle"),
            _start(0.1, 1, 2, 1, "msg:WALK"),
            _end(0.4, 1, 2),
            _end(0.5, 1, 2),  # closed twice while the trace is open
            _end(1.0, 1, 1),
            _end(1.2, 9, 99),  # end for a span that never started
        ]
        analysis = assemble_spans(events)
        assert analysis.double_closed == [(1, 2)]
        assert analysis.unmatched_ends == [(9, 99)]
        assert not analysis.clean

    def test_unknown_parent_is_detached_but_visible(self):
        events = [
            _start(0.0, 1, 1, -1, "cycle"),
            _start(0.1, 1, 5, 404, "proc:WALK"),  # parent never appears
            _end(0.2, 1, 5),
            _end(1.0, 1, 1),
        ]
        analysis = assemble_spans(events)
        assert analysis.detached == [(1, 5)]
        assert not analysis.clean
        # the span still renders under the root rather than vanishing
        assert analysis.trees[0].root.children[0].span == 5

    def test_result_before_finish_raises(self):
        with pytest.raises(RuntimeError, match="finish"):
            SpanAssembler().result()


def _prepare(xid, t=1.0):
    return ExchangePrepareEvent(time=t, xid=xid, u=1, v=2, var=10.0)


def _commit(xid, t=2.0):
    return ExchangeCommitEvent(time=t, xid=xid, u=1, v=2, var=10.0, traded=4)


#: Hand-made exchange traces: the three protocol bugs fail the analysis,
#: inline commits and late replies are counted only.
HALF_OPEN = [_prepare(5)]
OVER_RESOLVED = [_prepare(1), _commit(1),
                 ExchangeAbortEvent(time=3.0, xid=1, u=1, v=2, reason="late")]
ORPHAN = [_commit(9)]
INLINE = [_commit(-1, t=1.0),
          ExchangeAbortEvent(time=2.0, xid=-1, u=3, v=4, reason="stale")]
LATE_REPLY = [
    MsgTimeoutEvent(time=5.0, kind="walk", u=1, tag=3),
    MsgDeliverEvent(time=6.0, mtype="VAR_REPLY", src=2, dst=1, tag=3),
    # different cycle: not late
    MsgDeliverEvent(time=6.5, mtype="VAR_REPLY", src=2, dst=1, tag=4),
]


class TestExchangeFold:
    def test_each_outcome_kind_matches_its_prepare(self):
        events = [
            _prepare(1, t=1.0),
            _prepare(2, t=1.5),
            _prepare(3, t=2.0),
            _commit(1, t=3.0),
            ExchangeAbortEvent(time=3.5, xid=2, u=1, v=2, reason="stale"),
            ExchangeTimeoutEvent(time=4.0, xid=3, u=1, v=2),
        ]
        analysis = assemble_spans(events)
        assert analysis.clean
        assert analysis.exchanges == {
            "commit": 1, "abort": 1, "timeout": 1, "half-open": 0,
        }

    def test_half_open_prepare_is_flagged(self):
        analysis = assemble_spans(HALF_OPEN)
        assert analysis.half_open_xids == [5]
        assert analysis.exchanges["half-open"] == 1
        assert not analysis.clean

    def test_double_resolution_is_flagged(self):
        analysis = assemble_spans(OVER_RESOLVED)
        assert analysis.over_resolved == [1]
        assert not analysis.clean
        assert analysis.exchanges["commit"] == 1  # the first outcome counts

    def test_orphan_outcome_is_flagged(self):
        analysis = assemble_spans(ORPHAN)
        assert analysis.orphan_outcomes == [9]
        assert not analysis.clean

    def test_inline_events_are_excluded_from_matching(self):
        """xid = -1 commits/aborts come from the non-2PC engines."""
        analysis = assemble_spans(INLINE)
        assert analysis.clean
        assert analysis.inline_commits == 1
        assert sum(analysis.exchanges.values()) == 0 and analysis.orphan_outcomes == []

    def test_late_reply_detection(self):
        analysis = assemble_spans(LATE_REPLY)
        assert analysis.late_replies == [(6.0, 1, 3)]
        assert analysis.clean

    def test_streaming_assembler_tracks_no_xids(self):
        assembler = SpanAssembler()
        for ev in HALF_OPEN + ORPHAN:
            assembler.on_event(ev)
        assembler.finish(3.0)
        assert assembler.result().clean and assembler.result().half_open_xids == []

    def test_summary_and_bug_lines(self):
        events = [_prepare(1), _commit(1), _prepare(2, t=3.0)]
        for render in (render_span_trees, render_critical_paths):
            text = render(assemble_spans(events))
            assert "2 two-phase exchanges: 1 committed" in text
            assert "HALF-OPEN xids: [2]" in text
        text = render_span_trees(assemble_spans(OVER_RESOLVED + ORPHAN + INLINE + LATE_REPLY))
        assert "PROTOCOL BUG: xids resolved twice: [1]" in text
        assert "PROTOCOL BUG: outcomes without prepare: [9]" in text
        assert "1 inline commits (no 2PC, xid=-1)" in text
        assert "1 late VAR_REPLYs" in text


class TestCriticalPath:
    def _tree(self):
        events = [
            _start(0.0, 1, 1, -1, "cycle", node=0),
            _start(0.0, 1, 2, 1, "msg:WALK", node=0),
            _start(4.0, 1, 3, 2, "proc:WALK", node=5),
            _end(4.0, 1, 3),
            _end(4.0, 1, 2),
            _start(7.0, 1, 4, 1, "timer:vote", node=0),
            _end(7.0, 1, 4),
            _start(7.0, 1, 5, 4, "msg:EXCHANGE_PREPARE", node=0),
            _end(9.0, 1, 5),
            _end(10.0, 1, 1, status="ok"),
        ]
        (tree,) = assemble_spans(events).trees
        return tree

    def test_segments_partition_the_root_window(self):
        tree = self._tree()
        segments = critical_path(tree)
        assert segments[0].start == tree.root.start
        assert segments[-1].end == tree.root.end
        for prev, nxt in zip(segments, segments[1:]):
            assert prev.end == nxt.start  # no gaps, no overlap
        assert sum(s.duration for s in segments) == pytest.approx(10.0)

    def test_timer_gap_attribution(self):
        totals = path_totals(critical_path(self._tree()))
        # the 0..7 gap ends in timer:vote => back-off, not generic wait
        assert totals["timer"] == pytest.approx(7.0)
        assert totals["transit"] == pytest.approx(2.0)  # EXCHANGE_PREPARE
        assert totals["wait"] == pytest.approx(1.0)  # 9..10 at root
        assert totals["process"] == pytest.approx(0.0)

    def test_open_root_rejected(self):
        analysis = assemble_spans(COMPLETE[:-1])
        with pytest.raises(ValueError, match="never closed"):
            critical_path(analysis.trees[0])


class TestRendering:
    def test_span_tree_render(self):
        text = render_span_trees(assemble_spans(COMPLETE))
        assert "1 span trees (1 complete)" in text
        assert "cycle @n3" in text and "proc:WALK @n7" in text

    def test_critpath_render(self):
        text = render_critical_paths(assemble_spans(COMPLETE))
        assert "1 complete trees" in text and "transit" in text

    def test_analysis_dict_shape(self):
        data = analysis_to_dict(assemble_spans(COMPLETE))
        assert data["clean"] and data["trees"] == 1 == data["complete"]
        assert set(data["critical_path_seconds"]) == {
            "transit", "process", "timer", "wait",
        }
        data = analysis_to_dict(assemble_spans(HALF_OPEN + ORPHAN + LATE_REPLY))
        assert data["exchanges"] == {"commit": 0, "abort": 0, "timeout": 0, "half-open": 1}
        assert (data["half_open_xids"], data["orphan_outcomes"], data["late_replies"],
                data["over_resolved"], data["inline_commits"]) == (1, 1, 1, 0, 0)
        assert not data["clean"]


class TestFaultInvariants:
    """Satellite: span-tree invariants under 30% injected loss."""

    def test_every_root_closes_or_is_flagged_orphan(self, lossy_traced_result):
        analysis = assemble_spans(lossy_traced_result.trace)
        assert analysis.trees  # the run actually probed
        for tree in analysis.trees:
            closed = tree.root.end is not None
            flagged = (tree.trace, tree.root.span) in analysis.orphans
            assert closed or flagged
        # the engine's finalize_trace closes every in-flight root, so a
        # faithful trace has no orphans at all — loss notwithstanding
        assert analysis.orphans == []
        assert analysis.clean

    def test_injected_drops_close_their_spans(self, lossy_traced_result):
        analysis = assemble_spans(lossy_traced_result.trace)

        def statuses(span):
            yield span.status
            for child in span.children:
                yield from statuses(child)

        seen = {s for t in analysis.trees for s in statuses(t.root)}
        assert "drop" in seen  # FaultyTransport losses are observable

    def test_every_prepare_resolves_exactly_once(self, lossy_traced_result):
        analysis = assemble_spans(lossy_traced_result.trace)
        prepares = [
            ev for ev in lossy_traced_result.trace
            if isinstance(ev, ExchangePrepareEvent)
        ]
        assert prepares, "a lossy 2PC run must propose exchanges"
        assert analysis.clean, (
            f"half-open={analysis.half_open_xids} over={analysis.over_resolved} "
            f"orphans={analysis.orphan_outcomes}"
        )
        counts = analysis.exchanges
        assert counts["half-open"] == 0
        assert counts["commit"] + counts["abort"] + counts["timeout"] == len(
            {ev.xid for ev in prepares}
        )
        # under 30% loss some exchanges must fail, some must survive
        assert counts["commit"] > 0
        assert counts["abort"] + counts["timeout"] > 0

    def test_prepare_events_are_unique_per_xid(self, lossy_traced_result):
        xids = Counter(
            ev.xid for ev in lossy_traced_result.trace
            if isinstance(ev, ExchangePrepareEvent)
        )
        assert all(n == 1 for n in xids.values()), xids.most_common(3)

    def test_round_trips_through_jsonl_file(self, lossy_traced_result, tmp_path):
        path = write_events_jsonl(lossy_traced_result.trace, tmp_path / "trace.jsonl")
        assert analysis_to_dict(assemble_spans(load_trace(path))) == analysis_to_dict(
            assemble_spans(lossy_traced_result.trace))


class TestCliExitCodes:
    """The analyzer CLI on synthetic traces: clean, violating, unreadable."""

    def test_clean_trace_exits_zero(self, tmp_path, capsys):
        path = write_events_jsonl(COMPLETE, tmp_path / "t.jsonl")
        assert repro_main(["spans", str(path)]) == 0
        assert repro_main(["critpath", str(path)]) == 0
        capsys.readouterr()

    def test_truncated_trace_exits_one(self, tmp_path, capsys):
        # drop the tail of the stream: the root never closes
        path = write_events_jsonl(COMPLETE[:-1], tmp_path / "t.jsonl")
        assert repro_main(["spans", str(path)]) == 1
        assert "ORPHAN" in capsys.readouterr().out
        assert repro_main(["critpath", str(path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("events", [HALF_OPEN, OVER_RESOLVED, ORPHAN],
                             ids=["half-open", "over-resolved", "orphan"])
    def test_exchange_bug_exits_one(self, events, tmp_path, capsys):
        path = write_events_jsonl(events, tmp_path / "t.jsonl")
        assert repro_main(["spans", str(path)]) == 1
        assert repro_main(["critpath", str(path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("events", [INLINE, LATE_REPLY], ids=["inline", "late-reply"])
    def test_counted_only_exits_zero(self, events, tmp_path, capsys):
        path = write_events_jsonl(events, tmp_path / "t.jsonl")
        assert repro_main(["spans", str(path)]) == 0
        assert "two-phase exchanges" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [
        None,  # missing file
        '{"e":"PROBE","t":1.0,"u":1,"s":2,"cycle":0}\nnot json\n',
        '{"t":1.0,"u":1}\n',  # no event tag
    ], ids=["missing", "invalid-json", "unknown-tag"])
    def test_unreadable_trace_exits_two(self, content, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        for command in ("spans", "critpath"):
            assert repro_main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"{command}: ") and captured.err.count("\n") == 1
            assert str(path) in captured.err

    def test_json_out_artifact(self, tmp_path, capsys):
        trace = write_events_jsonl(COMPLETE, tmp_path / "t.jsonl")
        out = tmp_path / "analysis.json"
        assert repro_main(["spans", str(trace), "--json-out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["clean"] and data["orphans"] == 0


class TestDeterminism:
    """Same seed => byte-identical span-tree output, serial vs pooled."""

    def test_serial_and_parallel_span_output_identical(self):
        config = LOSSY_TRACED.but(duration=300.0, sample_interval=150.0)
        serial = run_sweep({"run": config}, measure_lookups=False, workers=1)
        pooled = run_sweep({"run": config}, measure_lookups=False, workers=2)
        a = assemble_spans(serial["run"].trace)
        b = assemble_spans(pooled["run"].trace)
        assert render_span_trees(a, limit=None) == render_span_trees(b, limit=None)
        assert render_critical_paths(a, limit=None) == render_critical_paths(
            b, limit=None
        )
        assert analysis_to_dict(a) == analysis_to_dict(b)
