"""The kernel profiling plane: exact partition, closed registry, table.

The load-bearing acceptance check lives in
``TestPartitionInvariant.test_attribution_exactly_partitions_wall_time``:
with profiling on, the per-category nanoseconds plus the explicit
``untracked`` residual must equal the profiled total *exactly* (integer
arithmetic, no epsilon).  The profile's saved form is the run record's
``profile`` section: :meth:`KernelProfile.from_dict` is the loader's
check of it, ``repro show`` renders its table and ``repro compare``
diffs it category by category.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.persistence import compare_records, load_record, save_record
from repro.net.messages import MSG_TYPES, VarProbe
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator
from repro.obs.prof import (
    CATEGORIES,
    KernelProfile,
    KernelProfiler,
    classify_event,
    wall_monotonic,
)

#: Small but real: the message plane over the simulator exercises every
#: delivery category plus probe/walk/vote timers within a short run.
PROFILED = ExperimentConfig(
    preset="ts-small",
    n_overlay=48,
    prop=PROPConfig(policy="G", nhops=2),
    transport="sim",
    duration=600.0,
    sample_interval=300.0,
    lookups_per_sample=10,
    kernel_profile=True,
)


#: Well-keyed profiles with one field of the wrong type.
MALFORMED_FIELDS = {
    "total_ns": "abc",
    "events": 1.5,
    "categories": ["build"],
    "counts": {"build": "1"},
    "sim_seconds": "600",
    "heap": {"pops": None},
}


def _profile(config: ExperimentConfig = PROFILED) -> KernelProfile:
    result = run_experiment(config)
    assert result.kernel_profile is not None
    return KernelProfile.from_dict(result.kernel_profile)


class TestPartitionInvariant:
    def test_attribution_exactly_partitions_wall_time(self):
        prof = _profile()
        assert prof.total_ns > 0
        assert prof.untracked_ns >= 0
        assert sum(prof.categories.values()) + prof.untracked_ns == prof.total_ns

    def test_every_pop_is_one_bracketed_event(self):
        """Both loops take events from ``EventQueue.pop_due`` only, so
        the profiler's event count, the per-category counts of the
        dispatch categories and the queue's own pop counter agree."""
        prof = _profile()
        dispatched = sum(n for cat, n in prof.counts.items()
                         if cat not in ("build", "sample"))
        assert prof.events == dispatched == prof.heap["pops"]

    def test_profile_covers_dispatch_and_stage_categories(self):
        prof = _profile()
        assert prof.events > 0
        assert prof.categories.get("build", 0) > 0
        assert prof.categories.get("sample", 0) > 0
        assert prof.categories.get("timer:probe", 0) > 0
        assert prof.categories.get("deliver:WALK", 0) > 0
        assert set(prof.categories) <= set(CATEGORIES)

    def test_heap_telemetry_sampled_per_window(self):
        prof = _profile()
        assert prof.heap["pushes"] > 0
        assert prof.heap["pops"] > 0
        assert prof.heap["pushes"] >= prof.heap["pops"]
        assert 0.0 <= prof.heap["final_corpse_ratio"] <= 1.0
        assert prof.heap["pushes_per_sim_s"] > 0
        assert prof.windows == 3  # one per run_until sample (0, 300, 600)

    def test_disabled_profiler_leaves_result_field_none(self):
        result = run_experiment(PROFILED.but(kernel_profile=False))
        assert result.kernel_profile is None


class TestClassification:
    def test_registry_mirrors_wire_grammar(self):
        # prof.py mirrors MSG_TYPES instead of importing the engines;
        # this is the pin that keeps the mirror honest
        assert tuple(f"deliver:{t}" for t in MSG_TYPES) == tuple(
            c for c in CATEGORIES if c.startswith("deliver:")
        )

    def test_timer_callbacks_classified_by_name(self):
        class Engine:
            def _probe_cycle(self, u):
                pass

            def _vote_timeout(self, u, xid):
                pass

        e = Engine()
        assert classify_event(e._probe_cycle, (3,)) == "timer:probe"
        assert classify_event(e._vote_timeout, (3, 7)) == "timer:vote"

    def test_deliveries_classified_by_message_type(self):
        class Msg:
            type_name = "WALK"

        class Transport:
            def _deliver(self, msg):
                pass

        assert classify_event(Transport()._deliver, (Msg(),)) == "deliver:WALK"

    def test_ping_batch_filed_under_deliver_var_probe(self, gnutella):
        """One instant's pings are one event, filed as one
        ``deliver:VAR_PROBE`` call, and the partition stays exact."""
        sim = Simulator()
        transport = SimTransport(sim, gnutella)

        def fan_out():
            for w in range(1, 6):
                transport.send(VarProbe(src=0, dst=w, cycle=1))

        sim.schedule(1.0, fan_out)
        sim.profiler = KernelProfiler()
        sim.run_until(2.0)
        profile = sim.profiler.finish()
        assert profile.counts == {"event:other": 1, "deliver:VAR_PROBE": 1}
        assert transport.stats.delivered["VAR_PROBE"] == 5
        assert sum(profile.categories.values()) + profile.untracked_ns == profile.total_ns

    def test_unknown_callbacks_land_in_event_other(self):
        assert classify_event(lambda: None, ()) == "event:other"
        assert classify_event([].append, ("x",)) == "event:other"

    def test_unknown_stage_category_rejected(self):
        prof = KernelProfiler()
        with pytest.raises(ValueError, match="unknown profile category"):
            with prof.stage("not-a-category"):
                pass


class TestQueueCounters:
    def test_pushes_pops_cancels_track_queue_traffic(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        sim.run()
        q = sim.queue
        assert q.pushes == 2
        assert q.pops == 1
        assert q.cancels == 1
        assert q.heap_size >= len(q)


class TestLoopParity:
    """``run_until`` and ``_run_until_profiled`` are the same loop over
    the same pop-due primitive; only the brackets differ."""

    @staticmethod
    def _scripted(profiler):
        sim = Simulator()
        sim.profiler = profiler
        fired = []

        def chain(tag, left):
            fired.append((sim.now, tag))
            if left:
                sim.schedule(0.0, chain, tag + "'", left - 1)  # same timestamp

        doomed = sim.schedule(1.0, fired.append, "doomed")  # a corpse at the head
        for tag in "abc":
            sim.schedule(2.0, chain, tag, 2)
        sim.schedule(2.0, doomed.cancel)  # late cancel: already dead by then
        sim.schedule(9.0, fired.append, "beyond")
        doomed.cancel()
        counts = [sim.run_until(t) for t in (0.5, 2.0, 2.0, 5.0)]
        q = sim.queue
        return fired, counts, sim.now, sim.events_executed, (
            q.pushes, q.pops, q.cancels, len(q), q.heap_size)

    def test_profiled_and_plain_loops_agree(self):
        prof = KernelProfiler()
        plain = self._scripted(None)
        assert self._scripted(prof) == plain
        fired, counts, now, executed, queue = plain
        assert [tag for _, tag in fired] == [
            "a", "b", "c", "a'", "b'", "c'", "a''", "b''", "c''"]
        assert counts == [0, 10, 0, 0] and now == 5.0 and executed == 10
        assert queue == (12, 10, 1, 1, 1)
        profile = prof.finish()
        assert profile.events == 10 and profile.windows == 4
        assert sum(profile.categories.values()) + profile.untracked_ns == profile.total_ns


class TestExports:
    def test_table_lists_categories_and_total(self):
        prof = _profile()
        lines = prof.table().splitlines()
        assert lines[0].split() == ["category", "seconds", "share", "events"]
        assert {"build", "sample", "untracked", "total"} <= {
            line.split()[0] for line in lines[1:] if line.strip()}
        assert lines[-1].startswith("event heap: ")


class TestRoundTrip:
    def test_save_load_round_trips(self, tmp_path):
        """The run record keeps the whole profile, to the nanosecond."""
        result = run_experiment(PROFILED)
        prof = KernelProfile.from_dict(result.kernel_profile)
        record = load_record(save_record(result, tmp_path / "r.json"))
        assert record.profile == prof
        assert record.profile.table() == prof.table()

    def test_malformed_profile_raises_value_error(self):
        doc = _profile().to_dict()
        for name, value in MALFORMED_FIELDS.items():
            with pytest.raises(ValueError, match=f"malformed: {name}"):
                KernelProfile.from_dict(dict(doc, **{name: value}))
        with pytest.raises(ValueError, match="do not sum to total_ns"):
            KernelProfile.from_dict(dict(doc, untracked_ns=doc["untracked_ns"] + 1))

    def test_superseded_profile_shape_is_refused(self):
        """No reader is kept for the old standalone profile file: its
        ``schema_version`` (or a legacy ``alloc_bytes`` table) is an
        unexpected key."""
        doc = _profile().to_dict()
        for extra in ({"schema_version": 1},
                      {"alloc_bytes": {"build": 4096}}):
            with pytest.raises(ValueError, match="keys"):
                KernelProfile.from_dict(dict(doc, **extra))
        with pytest.raises(ValueError, match="keys"):
            KernelProfile.from_dict([doc])

    def test_unknown_category_raises_mismatch(self):
        doc = _profile().to_dict()
        doc["categories"]["deliver:GOSSIP"] = 1
        with pytest.raises(ValueError, match="outside the registry: deliver:GOSSIP"):
            KernelProfile.from_dict(doc)


def _saved(tmp_path, name="r.json", result=None):
    """A profiled run's record, as ``repro run --profile --save`` writes it."""
    return str(save_record(result or run_experiment(PROFILED), tmp_path / name))


class TestDiff:
    def test_diff_table_reports_deltas(self, tmp_path, capsys):
        """``repro compare`` of two profiled records names each
        category's wall-second delta."""
        path = _saved(tmp_path)
        a, b = load_record(path), load_record(path)
        b.profile.categories["deliver:WALK"] += 2_000_000
        b.profile.total_ns += 2_000_000
        rows = [line.split() for line in compare_records(a, b).splitlines()[2:]]
        assert [row[0] for row in rows] == ["profile.deliver:WALK", "profile.total"]
        assert float(rows[0][-1]) == pytest.approx(0.002)
        other = _saved(tmp_path, "b.json")
        assert main(["compare", path, other]) == 0
        out = capsys.readouterr().out
        for name in ("build", "sample", "deliver:WALK", "untracked", "total"):
            assert f"profile.{name} " in out

    def test_diff_lists_a_category_of_one_profile_only(self, tmp_path):
        profiled = load_record(_saved(tmp_path))
        plain = load_record(_saved(tmp_path, "plain.json",
                                   run_experiment(PROFILED.but(kernel_profile=False))))
        rows = [line.split() for line in compare_records(plain, profiled).splitlines()]
        (walk,) = [row for row in rows if row[:1] == ["profile.deliver:WALK"]]
        assert walk[1] == walk[3] == "-" and float(walk[2]) >= 0


class TestProfCli:
    """The profile on the ``repro`` command line: ``show`` and ``compare``."""

    def test_prof_renders_table(self, tmp_path, capsys):
        """``repro show`` prints every column of the profile table, plus
        the event-heap line."""
        result = run_experiment(PROFILED)
        path = _saved(tmp_path, result=result)
        assert main(["show", path]) == 0
        out = capsys.readouterr().out
        table = KernelProfile.from_dict(result.kernel_profile).table()
        assert f"```text\n{table}\n```" in out
        lines = out[out.index("## Wall-clock profile"):].splitlines()
        assert ["category", "seconds", "share", "events"] in [line.split() for line in lines]
        rows = {line.split()[0]: line.split()[1:] for line in lines if "%" in line}
        assert {"build", "sample", "deliver:WALK", "untracked", "total"} <= set(rows)
        assert all(len(cells) == 3 for cells in rows.values())  # seconds, share, events
        assert any(line.startswith("event heap: ") and "pops=" in line for line in lines)

    def test_truncated_profile_exits_two(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        doc = json.loads(open(_saved(tmp_path)).read())
        for profile in ({"total_ns": 1}, dict(doc["profile"], total_ns="abc")):
            path.write_text(json.dumps(dict(doc, profile=profile)))
            for argv in (["show", str(path)], ["compare", str(path), str(path)]):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
                assert "profile" in err

    def test_category_mismatch_exits_two(self, tmp_path, capsys):
        doc = json.loads(open(_saved(tmp_path)).read())
        doc["profile"]["categories"]["deliver:GOSSIP"] = 0
        path = tmp_path / "alien.json"
        path.write_text(json.dumps(doc))
        assert main(["show", str(path)]) == 2
        assert "outside the registry: deliver:GOSSIP" in capsys.readouterr().err

    def test_diff_of_identical_profiles_exits_zero(self, tmp_path, capsys):
        path = _saved(tmp_path)
        assert main(["compare", path, path]) == 0
        assert capsys.readouterr().out.rstrip().endswith("(no differences)")

    def test_diff_arity_error_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", _saved(tmp_path)])
        assert excinfo.value.code == 2


class TestWallClockHelpers:
    def test_monotonic_is_nondecreasing(self):
        a = wall_monotonic()
        b = wall_monotonic()
        assert b >= a


class TestTraceParity:
    def test_profiling_leaves_traces_byte_identical(self):
        """The deterministic-by-exclusion claim: attaching the profiler
        must not perturb one event of a traced run."""
        base = PROFILED.but(kernel_profile=False, trace=True)
        plain = run_experiment(base)
        profiled = run_experiment(base.but(kernel_profile=True))
        from repro.obs.events import events_to_jsonl

        assert events_to_jsonl(plain.trace) == events_to_jsonl(profiled.trace)
