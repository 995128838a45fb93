"""Swarm orchestration: validation (pure, always run), the loopback
smoke test (n=8, sub-second wall time — the CI gate), churn/load
wiring, the one monitor feeder per run, the one-socket ingress (one
bound socket whatever n, and an n=100 swarm under a 64-descriptor
limit), and the ``python -m repro.live swarm`` error contract.
"""

from __future__ import annotations

import asyncio
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.live.clock import LiveScheduler
from repro.live.cli import main as live_main
from repro.live.swarm import ChurnSchedule, Swarm
from repro.live.traffic import TrafficGenerator
from repro.live.transport import udp_loopback_available
from repro.obs.monitor import find_monitor
from repro.workloads.churn import ChurnConfig

SRC = Path(__file__).resolve().parents[2] / "src"
FD_DIR = Path("/proc/self/fd")

needs_loopback = pytest.mark.skipif(
    not udp_loopback_available(),
    reason="loopback UDP unavailable in this environment",
)


def _config(**overrides) -> ExperimentConfig:
    defaults = dict(
        seed=0,
        preset="ts-small",
        n_overlay=8,
        prop=PROPConfig(policy="G"),
        transport="udp",
        duration=120.0,
        sample_interval=120.0,
        live_speedup=480.0,  # 120 protocol s in 0.25 wall s
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestChurnSchedule:
    def test_parse(self):
        schedule = ChurnSchedule.parse("120:5, 600:10")
        assert schedule.stages == ((120.0, 5), (600.0, 10))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="expected time:count"):
            ChurnSchedule.parse("120-5")

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError, match="bad churn stage"):
            ChurnSchedule(stages=((-1.0, 5),))
        with pytest.raises(ValueError, match="bad churn stage"):
            ChurnSchedule(stages=((10.0, 0),))


class TestValidation:
    def test_requires_udp_transport(self):
        with pytest.raises(ValueError, match="transport='udp'"):
            Swarm(_config(transport="sim"))

    def test_requires_prop(self):
        # ExperimentConfig itself refuses a propless message transport,
        # so the bad config never reaches Swarm's own guard.
        with pytest.raises(ValueError, match="set prop"):
            _config(prop=None)

    def test_churn_schedule_needs_spares(self):
        schedule = ChurnSchedule(stages=((30.0, 2),))
        with pytest.raises(ValueError, match="n_spare"):
            Swarm(_config(n_spare=0), churn_schedule=schedule)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_traffic_rate_must_be_finite(self, rate):
        async def body():
            scheduler = LiveScheduler(asyncio.get_running_loop())
            with pytest.raises(ValueError, match="rate"):
                TrafficGenerator(scheduler, lambda: 0.0, rate)

        asyncio.run(body())

    def test_lifecycle_guards(self):
        swarm = Swarm(_config())
        with pytest.raises(RuntimeError, match="start"):
            swarm.launch()
        with pytest.raises(RuntimeError, match="never started"):
            asyncio.run(swarm.close())


class TestTraffic:
    def test_mean_lookup_leaves_out_of_scope_lookups_out(self):
        """An out-of-scope lookup (``inf``) is counted but leaves the
        mean, as the harness's samples do."""
        async def body():
            latencies = iter([10.0, math.inf, 30.0, math.inf])
            traffic = TrafficGenerator(
                LiveScheduler(asyncio.get_running_loop()), lambda: next(latencies), 1.0)
            for _ in range(4):
                traffic._tick()
            return traffic

        traffic = asyncio.run(body())
        assert traffic.lookups == 4
        assert [ms for _, ms in traffic.samples] == [10.0, 30.0]
        assert traffic.mean_latency_ms == 20.0


@needs_loopback
class TestSwarmSmoke:
    """The CI smoke gate: a small swarm completes PROP end to end over
    real loopback datagrams in well under five seconds."""

    def test_eight_peers_run_prop_end_to_end(self):
        report = asyncio.run(Swarm(_config()).run())
        assert report.n_peers == 8
        assert report.duration >= 120.0
        assert report.probes > 0  # warmup probing happened
        assert report.datagrams_sent > 0
        assert report.datagrams_delivered > 0
        assert report.codec_errors == 0
        assert report.handler_errors == 0
        assert report.wire_bytes > 0
        assert report.wall_seconds < 5.0
        # every message type the engine sent went through the real codec
        assert report.datagrams_delivered <= report.datagrams_sent

    def test_churn_stages_and_lookup_load(self):
        config = _config(
            seed=3,
            n_spare=4,
            churn=ChurnConfig(rate_per_node=0.0),
            live_lookup_rate=4.0,
        )
        schedule = ChurnSchedule(stages=((30.0, 2),))
        report = asyncio.run(Swarm(config, churn_schedule=schedule).run())
        assert report.churn_events >= 2  # the staged burst ran
        assert report.lookups > 0
        assert math.isfinite(report.mean_lookup_ms)
        assert report.lookup_samples  # (t, ms) pairs retained

    def test_streaming_consumers_fed_from_real_events(self):
        """The monitor consumers attach exactly as in the simulated
        harness and see events generated by real datagram traffic."""
        config = _config(seed=2, trace_streaming=True, live_lookup_rate=4.0)
        swarm = Swarm(config)
        report = asyncio.run(swarm.run())
        assert swarm.tracer is not None
        consumers = swarm.tracer.consumers
        assert consumers  # monitor set attached
        statuses = [c.status() for c in consumers if hasattr(c, "status")]
        assert statuses  # the convergence monitor is among them
        assert report.datagrams_delivered > 0
        # a standalone run has no harness samples: the traffic feeds the monitor
        monitor = find_monitor(consumers)
        assert monitor.sample_times == [t for t, _ in report.lookup_samples]

    def test_harness_driven_run_feeds_the_monitor_once_per_sample(self):
        """With the harness sampling, the traffic generator's single
        lookups stay out of the monitor's plateau series."""
        config = _config(seed=2, trace_streaming=True, live_lookup_rate=4.0,
                         sample_interval=40.0, lookups_per_sample=20)
        result = run_experiment(config)
        monitor = find_monitor(result.consumers)
        assert monitor.sample_times == list(result.times)

    def test_summary_is_printable(self):
        report = asyncio.run(Swarm(_config(seed=1)).run())
        text = report.summary()
        assert "8 peers" in text
        assert "datagrams" in text


def _open_sockets() -> int:
    """Sockets this process holds open, from its descriptor table."""
    count = 0
    for fd in FD_DIR.iterdir():
        try:
            count += os.readlink(fd).startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor, closed by now
    return count


@needs_loopback
class TestOneIngress:
    """The whole swarm shares one datagram endpoint."""

    @pytest.mark.skipif(not FD_DIR.is_dir(), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("n", [8, 100])
    def test_swarm_binds_one_socket_whatever_n(self, n):
        async def body():
            swarm = Swarm(_config(n_overlay=n))
            before = _open_sockets()
            await swarm.start()
            bound = _open_sockets() - before
            await swarm.close()
            await asyncio.sleep(0)  # the endpoint closes its socket on the next pass
            return bound, _open_sockets() - before

        bound, left = asyncio.run(body())
        assert bound == 1
        assert left == 0

    def test_hundred_peers_under_a_64_descriptor_limit(self):
        """Per-peer sockets would need over 100 descriptors here."""
        code = textwrap.dedent("""
            import asyncio, resource
            _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
            from repro.core.config import PROPConfig
            from repro.harness.experiment import ExperimentConfig
            from repro.live.swarm import Swarm
            config = ExperimentConfig(
                seed=0, preset="ts-small", n_overlay=100, prop=PROPConfig(policy="G"),
                transport="udp", duration=120.0, sample_interval=120.0,
                live_speedup=480.0)
            r = asyncio.run(Swarm(config).run())
            print(r.n_peers, r.probes, r.datagrams_delivered, r.handler_errors,
                  r.codec_errors)
        """)
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        n_peers, probes, delivered, handler_errors, codec_errors = map(
            int, done.stdout.split())
        assert n_peers == 100
        assert probes > 0 and delivered > 0
        assert handler_errors == 0
        assert codec_errors == 0


class TestSwarmCli:
    @pytest.mark.parametrize("flag", ["--speedup", "--rate"])
    def test_non_finite_value_exits_with_one_error_line(self, flag):
        argv = ["swarm", flag, "nan"]
        with pytest.raises(SystemExit) as exc:
            live_main(argv)
        message = str(exc.value.code)
        assert message.startswith("error: ") and "nan" in message
        assert "\n" not in message
