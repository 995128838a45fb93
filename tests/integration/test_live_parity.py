"""Sim-vs-real acceptance: the SAME seed, topology and scenario run
through the deterministic simulator and the live UDP deployment plane
must tell the same story.

Exact trajectory equality is not the bar — the live plane's RNG draw
*order* depends on real timing (two peers' timers racing on the event
loop), so individual walks differ run to run.  What must agree is the
physics: both planes build the identical substrate per seed (shared
:func:`build_substrate`), run the identical engine code, and therefore
must land in tolerance bands on the aggregate trajectory — probe
activity, exchange counts, and the latency-improvement ratio the paper's
Fig. 5 is about.  Loopback wire latency (~µs) is the live analogue of
``latency_scale=0``, so the sim side runs that configuration.

This is the acceptance gate the deployment-plane issue names: a 50-peer
swarm completing PROP end to end with results matching the simulation
within tolerance.
"""

from __future__ import annotations

import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.live.transport import udp_loopback_available
from repro.obs.spans import assemble_spans

pytestmark = pytest.mark.skipif(
    not udp_loopback_available(),
    reason="loopback UDP unavailable in this environment",
)

N_PEERS = 50
DURATION = 480.0  # protocol seconds: full warmup (10 cycles at 60 s) minus tail
SPEEDUP = 320.0  # => 1.5 wall seconds of real UDP traffic


def _config(transport: str) -> ExperimentConfig:
    return ExperimentConfig(
        seed=11,
        preset="ts-small",
        n_overlay=N_PEERS,
        prop=PROPConfig(policy="G"),
        latency_scale=0.0,  # sim analogue of loopback wire latency (~0 ms)
        transport=transport,
        duration=DURATION,
        sample_interval=DURATION / 2,
        lookups_per_sample=150,
        live_speedup=SPEEDUP,
        trace=True,  # buffered span events for the structural comparison
    )


class TestSimVsRealParity:
    @pytest.fixture(scope="class")
    def planes(self):
        live = run_experiment(_config("udp"))
        sim = run_experiment(_config("sim"))
        return sim, live

    def test_same_substrate_same_baseline(self, planes):
        """t=0 is sampled before any protocol activity: both planes must
        measure the IDENTICAL initial world (same seed -> same hosts,
        same overlay, same oracle -> bitwise-equal first sample)."""
        sim, live = planes
        assert live.initial_lookup_latency == pytest.approx(
            sim.initial_lookup_latency, rel=1e-12
        )
        assert live.stretch[0] == pytest.approx(sim.stretch[0], rel=1e-12)
        assert live.link_stretch[0] == pytest.approx(sim.link_stretch[0], rel=1e-12)

    def test_live_swarm_completes_prop_end_to_end(self, planes):
        _, live = planes
        assert live.probes[-1] > 0
        assert live.exchanges[-1] > 0  # exchanges committed over real UDP
        assert live.net_stats.total_sent > 0
        assert live.net_stats.total_delivered > 0

    def test_probe_activity_within_band(self, planes):
        """Warmup probing is timer-driven (one probe cycle per node per
        init_timer), so probe counts agree tightly even across planes."""
        sim, live = planes
        assert sim.probes[-1] > 0
        assert live.probes[-1] == pytest.approx(sim.probes[-1], rel=0.25)

    def test_exchange_count_within_band(self, planes):
        """Exchange commits depend on which walks race ahead, so the band
        is wider than for probes — but both planes must find improvement
        opportunities at the same order of magnitude."""
        sim, live = planes
        assert sim.exchanges[-1] > 0
        lo = 0.4 * sim.exchanges[-1]
        hi = 2.5 * sim.exchanges[-1]
        assert lo <= live.exchanges[-1] <= hi

    def test_latency_improvement_within_band(self, planes):
        """The paper's headline effect: PROP lowers mean lookup latency.
        Both planes must improve, and by comparable ratios."""
        sim, live = planes
        sim_ratio = sim.improvement_ratio()
        live_ratio = live.improvement_ratio()
        assert sim_ratio < 1.0
        assert live_ratio < 1.0
        assert live_ratio == pytest.approx(sim_ratio, abs=0.15)

    def test_span_trees_structurally_match(self, planes):
        """The causal span trees tell the same story in both planes:
        one tree per probe cycle (so root counts land in the probe
        band) with comparable causal depth — real timing shifts which
        walks win races, not the shape of a PROP exchange."""
        sim, live = planes
        sim_spans = assemble_spans(sim.trace)
        live_spans = assemble_spans(live.trace)
        # no orphan roots, no instrumentation bugs on either plane
        assert sim_spans.clean and live_spans.clean
        assert sim_spans.trees and live_spans.trees
        assert len(live_spans.trees) == pytest.approx(
            len(sim_spans.trees), rel=0.25
        )
        def mean_depth(analysis):
            depths = [t.depth for t in analysis.trees]
            return sum(depths) / len(depths)
        assert mean_depth(live_spans) == pytest.approx(
            mean_depth(sim_spans), rel=0.5
        )
        # walks actually chained hops over the real wire
        assert max(t.depth for t in live_spans.trees) >= 3

    def test_message_accounting_consistent(self, planes):
        """Every protocol message the live engine sent went through the
        real codec and the real kernel; after the close's drain the books
        close exactly.  In datagrams: each one sent was read off the
        swarm's socket or dropped there by the kernel.  In messages: each
        was delivered or booked as dropped (``queued_at_close``,
        ``unsent_at_close`` and ``send_error`` included) when the kernel
        dropped nothing; a datagram it dropped carried at least one (a
        ping fan-out carries several)."""
        _, live = planes
        stats = live.net_stats
        metrics = live.live_metrics
        assert stats.total_delivered <= stats.total_sent
        # loopback under this light load should lose (almost) nothing
        assert stats.total_delivered >= 0.95 * stats.total_sent
        # a fan-out is one datagram: far fewer datagrams than messages
        assert metrics["transport.datagrams_sent"] < stats.total_sent
        kernel_drops = metrics.get("transport.kernel_drops")
        if kernel_drops is not None:  # absent where /proc/net/udp is unreadable
            assert metrics["transport.datagrams_sent"] == (
                metrics["transport.datagrams_read"] + kernel_drops)
            lost = stats.total_sent - stats.total_delivered - stats.total_dropped
            assert lost == 0 if kernel_drops == 0 else lost >= kernel_drops
