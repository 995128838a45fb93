"""The kernel profiling plane: exact partition, closed registry, table.

The load-bearing acceptance check lives in
``TestPartitionInvariant.test_attribution_exactly_partitions_wall_time``:
with profiling on, the per-category nanoseconds plus the explicit
``untracked`` residual must equal the profiled total *exactly* (integer
arithmetic, no epsilon).
"""

import json

import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.net.messages import MSG_TYPES, VarProbe
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator
from repro.obs.prof import (
    CATEGORIES,
    CategoryMismatchError,
    KernelProfile,
    KernelProfiler,
    ProfileError,
    classify_event,
    diff_table,
    wall_monotonic,
)
from repro.obs.__main__ import main as obs_main

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


#: Valid JSON, wrong shape: a field that does not convert.  Each must be
#: a plain ProfileError (exit 2), never a traceback or the exit code of
#: a category mismatch.
MALFORMED_DOCS = [
    {"schema_version": "repro.kernel-prof/1", "total_ns": "abc",
     "untracked_ns": 0, "categories": {}, "counts": {}},
    {"schema_version": "repro.kernel-prof/1", "total_ns": 1,
     "untracked_ns": 0, "categories": ["build"], "counts": {}},
]


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
        text = prof.table(top=5)
        assert "category" in text
        assert "untracked" in text or "total" in text
        assert "total" in text


class TestRoundTrip:
    def test_save_load_round_trips(self, tmp_path):
        prof = _profile()
        path = prof.save(tmp_path / "kp.json")
        loaded = KernelProfile.load(path)
        assert loaded.total_ns == prof.total_ns
        assert loaded.categories == prof.categories
        assert loaded.untracked_ns == prof.untracked_ns

    def test_truncated_json_raises_profile_error(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"schema_version": "repro.kernel-prof/1", "tot')
        with pytest.raises(ProfileError):
            KernelProfile.load(path)
        for doc in MALFORMED_DOCS:
            with pytest.raises(ProfileError, match="malformed") as excinfo:
                KernelProfile.from_dict(doc)
            assert not isinstance(excinfo.value, CategoryMismatchError)

    def test_legacy_alloc_bytes_key_is_ignored(self):
        doc = _profile().to_dict()
        legacy = dict(doc, alloc_bytes={"build": 4096})  # older profiles carry it
        assert KernelProfile.from_dict(legacy).to_dict() == doc

    def test_unknown_category_raises_mismatch(self):
        doc = _profile().to_dict()
        doc["categories"]["deliver:GOSSIP"] = 1
        with pytest.raises(CategoryMismatchError):
            KernelProfile.from_dict(doc)

    def test_wrong_schema_raises_profile_error(self):
        with pytest.raises(ProfileError, match="schema"):
            KernelProfile.from_dict({"schema_version": "bogus/9"})


class TestDiff:
    def test_diff_table_reports_deltas(self):
        a = _profile()
        b = KernelProfile.from_dict(a.to_dict())
        text = diff_table(a, b)
        assert "delta" in text
        assert "total" in text

    def test_diff_rejects_mismatched_category_sets(self):
        a = _profile()
        doc = a.to_dict()
        doc["categories"] = {
            k: v for k, v in doc["categories"].items() if k != "build"
        }
        b = KernelProfile.from_dict(doc)
        with pytest.raises(CategoryMismatchError, match="only in A"):
            diff_table(a, b)


class TestProfCli:
    def _saved(self, tmp_path, name="kp.json"):
        return str(_profile().save(tmp_path / name))

    def test_prof_renders_table(self, tmp_path, capsys):
        assert obs_main(["prof", self._saved(tmp_path)]) == 0
        assert "category" in capsys.readouterr().out

    def test_truncated_profile_exits_two(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"schema_version": "repro.kernel-prof/1"')
        assert obs_main(["prof", str(path)]) == 2
        assert "prof:" in capsys.readouterr().err
        for doc in MALFORMED_DOCS:
            path.write_text(json.dumps(doc))
            assert obs_main(["prof", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("prof:") and err.count("\n") == 1

    def test_category_mismatch_exits_one(self, tmp_path, capsys):
        doc = _profile().to_dict()
        doc["categories"]["deliver:GOSSIP"] = 5
        path = tmp_path / "alien.json"
        path.write_text(json.dumps(doc))
        assert obs_main(["prof", str(path)]) == 1
        assert "registry" in capsys.readouterr().err

    def test_diff_of_identical_profiles_exits_zero(self, tmp_path, capsys):
        path = self._saved(tmp_path)
        assert obs_main(["prof", "diff", path, path]) == 0
        assert "delta" in capsys.readouterr().out

    def test_diff_of_mismatched_profiles_exits_one(self, tmp_path, capsys):
        a = _profile()
        path_a = str(a.save(tmp_path / "a.json"))
        doc = a.to_dict()
        doc["categories"] = {
            k: v for k, v in doc["categories"].items() if k != "build"
        }
        path_b = tmp_path / "b.json"
        path_b.write_text(json.dumps(doc))
        assert obs_main(["prof", "diff", path_a, str(path_b)]) == 1

    def test_diff_arity_error_exits_two(self, tmp_path, capsys):
        path = self._saved(tmp_path)
        assert obs_main(["prof", "diff", path]) == 2


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
