"""Swarm orchestration: validation (pure, always run), the loopback
smoke test (n=8, sub-second wall time — the CI gate), one churn model
on both planes, lookup load, the one monitor feeder per run, the
one-socket ingress (one bound socket whatever n, and an n=100 swarm
under a 64-descriptor limit), teardown mid-exchange, and ``repro run
--transport udp`` errors.
"""

from __future__ import annotations

import asyncio
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro.live.transport
from repro.cli import _config_from_args, build_parser, main
from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.live.clock import LiveScheduler
from repro.live.swarm import Swarm, SwarmReport
from repro.live.traffic import TrafficGenerator
from repro.live.transport import udp_loopback_available
from repro.obs.events import ChurnJoin
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


def _assert_books_close(transport) -> None:
    """The live accounting identity after a drain, exact in datagrams:
    each one sent was read or dropped by the kernel.  In messages, where
    the kernel dropped nothing every message was delivered or booked as
    dropped; else each datagram it dropped carried at least one."""
    kernel = transport.kernel_drops or 0  # None: /proc/net/udp unreadable
    assert transport.datagrams_sent == transport.datagrams_read + kernel
    stats = transport.stats
    lost = stats.total_sent - stats.total_delivered - stats.total_dropped
    assert lost == 0 if kernel == 0 else lost >= kernel


def _run_argv(*flags: str) -> ExperimentConfig:
    return _config_from_args(build_parser().parse_args(["run", *flags]))


class TestChurnSchedule:
    def test_parse(self):
        config = _run_argv("--spares", "4", "--churn-rate", "0.01", "--churn-window", "120:600")
        assert (config.churn, config.n_spare) == (ChurnConfig(0.01, 120.0, 600.0), 4)

    def test_parse_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit, match="^2$"):  # argparse's usage error
            _run_argv("--churn-rate", "0.01", "--churn-window", "120-5")
        assert "expected START:STOP" in capsys.readouterr().err

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError, match="start <= stop"):
            _run_argv("--spares", "4", "--churn-rate", "0.01", "--churn-window", "10:5")
        with pytest.raises(SystemExit, match="needs --churn-rate"):
            _run_argv("--spares", "4", "--churn-window", "10:20")
        with pytest.raises(SystemExit, match=r"^error: rate_per_node must [^\n]*inf$"):
            main(["run", "--spares", "4", "--churn-rate", "inf"])


class TestValidation:
    def test_requires_udp_transport(self):
        with pytest.raises(ValueError, match="transport='udp'"):
            Swarm(_config(transport="sim"))

    def test_requires_prop(self):
        # ExperimentConfig itself refuses a propless message transport,
        # so Swarm never sees one.
        with pytest.raises(ValueError, match="set prop"):
            _config(prop=None)

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
        assert [ms for _, ms in traffic.samples] == [10.0, 30.0]
        assert traffic.metrics() == {"live.lookups": 4, "live.mean_lookup_ms": 20.0}


@needs_loopback
class TestSwarmSmoke:
    """The CI smoke gate: a small swarm completes PROP end to end over
    real loopback datagrams in well under five seconds."""

    def test_eight_peers_run_prop_end_to_end(self):
        async def lifecycle(swarm):
            await swarm.start()
            launched = time.monotonic()
            swarm.launch()
            await swarm.run_until(swarm.config.duration)
            return await swarm.close(), time.monotonic() - launched

        swarm = Swarm(_config(live_lookup_rate=4.0))
        report, wall_seconds = asyncio.run(lifecycle(swarm))
        assert swarm.transport.n_slots == 8 and swarm.scheduler.now >= 120.0
        assert report.probes > 0 and report.lookup_samples  # warmup probing, lookup load
        # every message type the engine sent went through the real codec;
        # each ping fan-out is one datagram carrying several VAR_PROBEs
        assert report.datagrams_sent == swarm.transport.datagrams_sent
        assert 0 < report.datagrams_sent < report.net_stats.total_delivered
        _assert_books_close(swarm.transport)
        assert report.codec_errors == swarm.transport.handler_errors == 0
        assert swarm.transport.wire_bytes_sent > 0 and wall_seconds < 5.0

    def test_churn_window_on_both_planes(self):
        """One config, one churn model: the same due times on both planes.  A
        live event is stamped a few wall ms late; this seed's last is due at 57 s."""
        config = _config(seed=1, n_spare=4, churn=ChurnConfig(0.005, 30.0, 90.0),
                         trace=True, live_speedup=120.0)
        for transport in ("sim", "udp"):
            trace = run_experiment(config.but(transport=transport)).trace
            joins = [e.time for e in trace if isinstance(e, ChurnJoin)]
            assert len(joins) == 3, transport
            assert all(30.0 <= t <= 90.0 for t in joins), (transport, joins)

    def test_harness_driven_run_feeds_the_monitor_once_per_sample(self):
        """The monitor sees real datagram traffic's events; the traffic
        generator's lookups stay out of its harness-fed plateau series."""
        config = _config(seed=2, trace_streaming=True, live_lookup_rate=4.0,
                         sample_interval=40.0, lookups_per_sample=20)
        result = run_experiment(config)
        monitor = find_monitor(result.consumers)
        assert monitor.sample_times == list(result.times)
        assert monitor.commits + monitor.aborts + monitor.timeouts > 0


@needs_loopback
class TestTeardown:
    """Closing a swarm while an exchange holds a ``_prepared`` lock
    leaves no task behind, raises nothing into the loop and closes the
    books: the live plane spawns no task, so nothing can outlive it."""

    def test_close_mid_exchange(self, monkeypatch):
        # one datagram per loop pass: the vote and the COMMIT that end an
        # exchange arrive on later passes than the PREPARE that opened it
        monkeypatch.setattr(repro.live.transport, "READS_PER_WAKEUP", 1)

        async def body():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            swarm = Swarm(_config(n_overlay=16))
            await swarm.start()
            locked = loop.create_future()

            class Locks(dict):
                def __setitem__(self, slot, lock):
                    super().__setitem__(slot, lock)
                    if not locked.done():
                        locked.set_result(slot)

            swarm.engine._prepared = Locks()
            swarm.launch()
            await asyncio.wait_for(locked, timeout=10.0)
            assert swarm.engine._prepared  # the COMMIT is still on its way
            report = await swarm.close()
            await asyncio.sleep(0.01)  # let whatever close left scheduled run
            return swarm, report, errors, asyncio.all_tasks() == {asyncio.current_task()}

        swarm, report, errors, only_this_task = asyncio.run(body())
        assert isinstance(report, SwarmReport)
        assert errors == []
        assert only_this_task
        assert swarm.transport._sock.fileno() == -1
        assert report.net_stats is swarm.transport.stats
        _assert_books_close(swarm.transport)


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
            from repro.harness.experiment import ExperimentConfig, run_experiment
            config = ExperimentConfig(
                seed=0, preset="ts-small", n_overlay=100, prop=PROPConfig(policy="G"),
                transport="udp", duration=120.0, sample_interval=120.0,
                live_speedup=480.0, lookups_per_sample=0)
            m = run_experiment(config).metrics()
            print(m["prop.probes"], m["transport.delivered"],
                  m["transport.handler_errors"], m["transport.codec_errors"])
        """)
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        probes, delivered, handler_errors, codec_errors = map(int, done.stdout.split())
        assert probes > 0 and delivered > 0
        assert handler_errors == codec_errors == 0


class TestSwarmCli:
    @pytest.mark.parametrize("flag", ["--speedup", "--lookup-rate"])
    def test_non_finite_value_exits_with_one_error_line(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--transport", "udp", "--policy", "G", flag, "nan"])
        message = str(exc.value.code)
        assert message.startswith("error: ") and "nan" in message and "\n" not in message
