"""Monitor detectors on crafted traces: plateau, efficacy, thrash.

Plus the delivery-mode contract of the monitor a run installs: the same
seed leaves it in the same state whether events were streamed live, fed
in a loop from a buffered trace, or streamed inside a worker process —
and a streaming run retains no raw events.
"""

import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import (
    ExperimentConfig,
    build_world,
    monitor_consumers,
    run_experiment,
)
from repro.harness.sweep import run_sweep
from repro.obs.events import (
    ExchangeAbortEvent,
    ExchangeCommitEvent,
    ExchangeTimeoutEvent,
    ProbeEvent,
    VarCollectEvent,
)
from repro.obs.monitor import (
    ConvergenceMonitor,
    ExchangeEfficacy,
    ThrashDetector,
    find_monitor,
    format_status,
)

TRACED = ExperimentConfig(
    seed=3,
    preset="ts-small",
    n_overlay=60,
    prop=PROPConfig(policy="G"),
    trace=True,
    duration=450.0,
    sample_interval=150.0,
    lookups_per_sample=20,
)
STREAMING = TRACED.but(trace=False, trace_streaming=True)


def _state(monitor):
    """Everything a ConvergenceMonitor accumulated, as comparable values."""
    return (
        monitor.status(),
        monitor.samples,
        (monitor.efficacy.commits, monitor.efficacy.resolved,
         monitor.efficacy.effective, monitor.efficacy.pending),
        (monitor.thrash.commits, monitor.thrash.thrashes, monitor.thrash.thrash_pairs),
    )


def commit(t, u, v, var, xid=-1):
    return ExchangeCommitEvent(time=t, xid=xid, u=u, v=v, var=var, traded=1)


def collect(t, u, v, var, cycle=0):
    return VarCollectEvent(time=t, u=u, v=v, cycle=cycle, var=var, policy="G")


def probe(t, cycle):
    return ProbeEvent(time=t, u=0, s=1, cycle=cycle)


class TestExchangeEfficacy:
    def test_commit_resolved_by_next_var_collect(self):
        eff = ExchangeEfficacy()
        eff.on_event(commit(1.0, 3, 7, var=50.0))
        eff.on_event(collect(2.0, 7, 3, var=40.0))  # reversed order, lower Var
        assert (eff.commits, eff.resolved, eff.effective) == (1, 1, 1)
        assert eff.efficacy == 1.0

    def test_ineffective_commit(self):
        eff = ExchangeEfficacy()
        eff.on_event(commit(1.0, 3, 7, var=50.0))
        eff.on_event(collect(2.0, 3, 7, var=60.0))  # Var got worse
        assert eff.efficacy == 0.0

    def test_unresolved_commits_count_neither_way(self):
        eff = ExchangeEfficacy()
        eff.on_event(commit(1.0, 3, 7, var=50.0))
        eff.on_event(collect(2.0, 1, 2, var=10.0))  # different pair
        assert eff.resolved == 0
        assert eff.pending == 1
        assert eff.efficacy is None

    def test_only_first_collect_resolves(self):
        eff = ExchangeEfficacy()
        eff.on_event(commit(1.0, 3, 7, var=50.0))
        eff.on_event(collect(2.0, 3, 7, var=40.0))
        eff.on_event(collect(3.0, 3, 7, var=999.0))  # already resolved
        assert (eff.resolved, eff.effective) == (1, 1)


class TestThrashDetector:
    def test_swap_back_within_k_cycles_is_a_thrash(self):
        thrash = ThrashDetector(k=3)
        thrash.on_event(probe(1.0, cycle=10))
        thrash.on_event(commit(1.0, 3, 7, var=50.0))
        thrash.on_event(probe(2.0, cycle=12))
        thrash.on_event(commit(2.0, 7, 3, var=48.0))  # same pair, 2 cycles on
        assert thrash.thrashes == 1
        assert thrash.thrash_pairs == [(3, 7)]

    def test_recommit_beyond_k_cycles_is_clean(self):
        thrash = ThrashDetector(k=3)
        thrash.on_event(probe(1.0, cycle=10))
        thrash.on_event(commit(1.0, 3, 7, var=50.0))
        thrash.on_event(probe(2.0, cycle=20))
        thrash.on_event(commit(2.0, 3, 7, var=48.0))
        assert thrash.thrashes == 0

    def test_distinct_pairs_never_thrash(self):
        thrash = ThrashDetector(k=3)
        thrash.on_event(commit(1.0, 3, 7, var=50.0))
        thrash.on_event(commit(1.5, 4, 8, var=50.0))
        assert thrash.thrashes == 0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ThrashDetector(k=0)


class TestConvergenceMonitor:
    def test_plateau_detected_on_settling_series(self):
        monitor = ConvergenceMonitor(600.0)
        for i, latency in enumerate([100.0, 90.0, 80.0, 79.9, 79.8, 79.85, 79.8]):
            monitor.on_sample(i * 60.0, latency)
        # stable from the 80.0 sample on: every later step is < 1% of it
        assert monitor.plateau_time == pytest.approx(120.0)

    def test_no_plateau_on_drifting_series(self):
        monitor = ConvergenceMonitor(600.0)
        for i in range(8):
            monitor.on_sample(i * 60.0, 100.0 - 10.0 * i)
        assert monitor.plateau_time is None

    def test_exchange_outcome_tallies(self):
        monitor = ConvergenceMonitor(600.0)
        monitor.on_event(commit(1.0, 1, 2, var=5.0))
        monitor.on_event(ExchangeAbortEvent(time=2.0, xid=1, u=3, v=4, reason="veto"))
        monitor.on_event(ExchangeTimeoutEvent(time=3.0, xid=2, u=5, v=6))
        status = monitor.status()
        assert (status.commits, status.aborts, status.timeouts) == (1, 1, 1)

    def test_phase_tracks_warmup_boundary(self):
        monitor = ConvergenceMonitor(600.0, warmup_end=300.0)
        monitor.on_event(probe(100.0, cycle=1))
        assert monitor.status().phase == "warmup"
        monitor.on_event(probe(400.0, cycle=2))
        assert monitor.status().phase == "maintenance"
        monitor.finish(600.0)
        assert monitor.status().phase == "done"
        assert monitor.sim_time == 600.0

    def test_format_status_line(self):
        monitor = ConvergenceMonitor(600.0, warmup_end=300.0)
        monitor.on_event(commit(120.0, 1, 2, var=5.0))
        monitor.on_sample(120.0, 82.3)
        line = format_status(monitor.status(), eta_seconds=42.0)
        assert line == "[warmup]  t=120/600s  lat 82.3ms  exch 1c/0a/0t  eta ~42s"

    def test_format_status_shows_thrash_and_efficacy(self):
        monitor = ConvergenceMonitor(600.0)
        monitor.on_event(probe(1.0, cycle=1))
        monitor.on_event(commit(1.0, 1, 2, var=5.0))
        monitor.on_event(collect(2.0, 1, 2, var=4.0, cycle=2))
        monitor.on_event(commit(2.5, 1, 2, var=4.0))
        line = format_status(monitor.status())
        assert "eff 1.00" in line
        assert "thrash 1" in line


class TestFindMonitor:
    def test_picks_the_monitor_among_other_consumers(self):
        monitor = ConvergenceMonitor(600.0)
        assert find_monitor([ExchangeEfficacy(), monitor]) is monitor

    def test_none_without_one(self):
        assert find_monitor(None) is None
        assert find_monitor([ExchangeEfficacy()]) is None


class TestStreamingEquivalence:
    """Same seed => identical monitor state across every delivery mode."""

    def test_streaming_matches_buffered_events_fed_in_a_loop(self):
        buffered = run_experiment(TRACED)
        streaming = run_experiment(STREAMING)
        assert streaming.trace is None
        (live,) = streaming.consumers
        fed = monitor_consumers(STREAMING)
        for event in buffered.trace:
            fed.on_event(event)
        for t, latency in zip(buffered.times, buffered.lookup_latency):
            fed.on_sample(float(t), float(latency))
        fed.finish(float(buffered.times[-1]))
        assert live.commits > 0
        assert _state(live) == _state(fed)

    def test_serial_matches_workers(self):
        serial = run_experiment(STREAMING)
        pooled = run_sweep({"run": STREAMING}, workers=2)["run"]
        (serial_mon,), (pooled_mon,) = serial.consumers, pooled.consumers
        assert serial_mon.commits == pooled_mon.commits
        assert serial_mon.samples == pooled_mon.samples
        assert serial_mon.status() == pooled_mon.status()


class TestBoundedMemory:
    def test_ts_large_hour_run_holds_no_raw_events(self):
        """Acceptance: ts-large n=1000, one simulated hour, streaming.

        The tracer must retain zero raw events at every sampling instant
        (a buffered run of this workload holds ~34k events) while the
        monitor it feeds saw them all.
        """
        config = ExperimentConfig(
            preset="ts-large",
            n_overlay=1000,
            prop=PROPConfig(policy="G", nhops=2),
            trace_streaming=True,
            duration=3600.0,
            sample_interval=360.0,
            lookups_per_sample=1000,
        )
        world = build_world(config)
        assert world.tracer is not None and world.tracer.streaming
        for t in range(0, int(config.duration) + 1, int(config.sample_interval)):
            world.sim.run_until(float(t))
            # peak retained state, checked *during* the run
            assert len(world.tracer.events) == 0
        world.tracer.close(config.duration)
        monitor = find_monitor(world.tracer.consumers)
        assert monitor.efficacy.commits > 100  # events did flow
        assert monitor.status().phase == "done"
