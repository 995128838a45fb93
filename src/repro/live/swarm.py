"""The swarm orchestrator: N live peers running PROP end to end.

:class:`Swarm` assembles a complete deployment from an
:class:`~repro.harness.experiment.ExperimentConfig` with
``transport="udp"``: the seed-determined substrate (identical to the
simulated plane's, via
:func:`~repro.harness.experiment.build_substrate`), one
:class:`~repro.live.transport.UdpTransport` endpoint shared by every
peer, a :class:`~repro.net.engine.MessagePROPEngine` driving every slot's state
machine on the shared :class:`~repro.live.clock.LiveScheduler`, plus the
optional load pieces — Poisson churn (``config.churn``), staged
join/leave bursts (:class:`ChurnSchedule`) and a
:class:`~repro.live.traffic.TrafficGenerator` at
``config.live_lookup_rate`` lookups per protocol second.

Lifecycle::

    swarm = Swarm(config)
    async with swarm:            # start() ... close()
        swarm.launch()           # protocol t=0: arm engines, churn, load
        await swarm.run_until(config.duration)
    report = swarm.report        # SwarmReport after close

or the one-call form ``report = await swarm.run()``.
:func:`~repro.harness.experiment.run_experiment` with ``transport="udp"``
drives the granular lifecycle so it can interleave the same metric
sampling it runs on the simulated plane.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field

from repro.harness.experiment import (
    ExperimentConfig,
    World,
    build_substrate,
    build_tracer,
)
from repro.live.clock import LiveScheduler
from repro.live.traffic import TrafficGenerator, single_lookup
from repro.live.transport import UdpTransport
from repro.net.engine import MessagePROPEngine, NetCounters
from repro.net.transport import TransportStats
from repro.obs.monitor import find_monitor
from repro.obs.trace import TraceConsumer, Tracer
from repro.workloads.churn import ChurnConfig, ChurnProcess

__all__ = ["ChurnSchedule", "Swarm", "SwarmReport"]


@dataclass(frozen=True)
class ChurnSchedule:
    """Staged join/leave bursts: ``k`` slot replacements at each time.

    The continuous Poisson process (``config.churn``) models steady
    turnover; stages model the flash events (a popular-content burst, a
    network incident) the adaptivity experiments ask about.  Each stage
    ``(t, k)`` replaces ``k`` random slots' hosts with spares at protocol
    time ``t``.
    """

    stages: tuple[tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        for t, k in self.stages:
            if t < 0.0 or k <= 0:
                raise ValueError(f"bad churn stage ({t}, {k}): need t >= 0, k > 0")

    @classmethod
    def parse(cls, spec: str) -> "ChurnSchedule":
        """Parse ``"t1:k1,t2:k2,..."`` (e.g. ``"120:5,600:10"``)."""
        stages: list[tuple[float, int]] = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                t_str, k_str = part.split(":")
                stages.append((float(t_str), int(k_str)))
            except ValueError:
                raise ValueError(
                    f"bad churn stage {part!r}; expected time:count"
                ) from None
        return cls(stages=tuple(stages))


@dataclass
class SwarmReport:
    """What a finished swarm run measured."""

    n_peers: int
    duration: float  # protocol seconds actually run
    speedup: float
    wall_seconds: float
    probes: int
    exchanges: int
    protocol_messages: int  # legacy walk+collect+notify counters
    datagrams_sent: int
    datagrams_delivered: int
    wire_bytes: int
    codec_errors: int
    handler_errors: int  # exceptions swallowed on the transport's receive path
    churn_events: int
    lookups: int
    mean_lookup_ms: float
    net_stats: TransportStats
    net_counters: NetCounters
    lookup_samples: list[tuple[float, float]] = field(default_factory=list)

    @property
    def msgs_per_wall_s(self) -> float:
        return self.datagrams_sent / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def exchanges_per_wall_s(self) -> float:
        return self.exchanges / self.wall_seconds if self.wall_seconds else 0.0

    def summary(self) -> str:
        lines = [
            f"swarm: {self.n_peers} peers, {self.duration:.0f} protocol s "
            f"at {self.speedup:g}x ({self.wall_seconds:.1f} wall s)",
            f"  probes {self.probes}  exchanges {self.exchanges}  "
            f"protocol msgs {self.protocol_messages}",
            f"  datagrams {self.datagrams_sent} sent / "
            f"{self.datagrams_delivered} delivered  "
            f"({self.wire_bytes} wire bytes, {self.codec_errors} codec errors, "
            f"{self.handler_errors} handler errors)",
            f"  throughput {self.msgs_per_wall_s:.0f} msgs/s  "
            f"{self.exchanges_per_wall_s:.2f} exchanges/s (wall)",
        ]
        if self.churn_events:
            lines.append(f"  churn events {self.churn_events}")
        if self.lookups:
            lines.append(
                f"  load {self.lookups} lookups, mean {self.mean_lookup_ms:.1f} ms"
            )
        return "\n".join(lines)


class Swarm:
    """Spawn-and-drive orchestrator for a loopback PROP deployment.

    Parameters
    ----------
    config:
        Must have ``transport="udp"`` and a PROP policy; the substrate
        (preset, overlay, oracle, heterogeneity) is built exactly as the
        simulated plane builds it.
    churn_schedule:
        Optional staged join/leave bursts on top of any Poisson churn in
        the config; both need ``config.n_spare > 0``.
    consumers:
        Extra :class:`~repro.obs.trace.TraceConsumer` subscribers; the
        tracer itself comes from
        :func:`~repro.harness.experiment.build_tracer`, as on the
        simulated plane.
    host:
        Bind address for the swarm's socket (default loopback).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        churn_schedule: ChurnSchedule | None = None,
        consumers: list[TraceConsumer] | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        if config.transport != "udp":
            raise ValueError(f"Swarm needs transport='udp', got {config.transport!r}")
        if config.prop is None:
            raise ValueError("Swarm runs PROP; set config.prop")
        if churn_schedule is not None and churn_schedule.stages and config.n_spare == 0:
            raise ValueError("churn_schedule needs n_spare > 0 replacement hosts")
        self.config = config
        self.churn_schedule = churn_schedule
        self._extra_consumers = list(consumers) if consumers else []
        self._host = host
        self.world: World | None = None
        self.scheduler: LiveScheduler | None = None
        self.transport: UdpTransport | None = None
        self.engine: MessagePROPEngine | None = None
        self.churn: ChurnProcess | None = None
        self.traffic: TrafficGenerator | None = None
        self.tracer: Tracer | None = None
        self.report: SwarmReport | None = None
        self._launched = False
        self._wall_start = 0.0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Build the substrate and bind the swarm's endpoint (no traffic yet)."""
        if self.scheduler is not None:
            raise RuntimeError("swarm already started")
        config = self.config
        loop = asyncio.get_running_loop()
        substrate = build_substrate(config)
        scheduler = LiveScheduler(loop, config.live_speedup)
        self.scheduler = scheduler

        tracer = build_tracer(config, lambda: scheduler.now)
        if tracer is not None:
            for consumer in self._extra_consumers:
                tracer.add_consumer(consumer)
        self.tracer = tracer

        self.transport = await UdpTransport.create(
            scheduler, substrate.overlay.n_slots, tracer=tracer, host=self._host
        )
        assert config.prop is not None  # __init__ invariant
        self.engine = MessagePROPEngine(
            substrate.overlay, config.prop, scheduler, substrate.rngs,
            self.transport, net=config.net, tracer=tracer,
        )

        needs_churn = config.churn is not None or (
            self.churn_schedule is not None and self.churn_schedule.stages
        )
        if needs_churn:
            self.churn = ChurnProcess(
                substrate.overlay,
                config.churn if config.churn is not None else ChurnConfig(0.0),
                scheduler,
                substrate.rngs.stream("churn"),
                substrate.spare_hosts,
                on_replace=self.engine.reset_slot,
                tracer=tracer,
            )

        if config.live_lookup_rate > 0.0:
            traffic_rng = substrate.rngs.stream("live:traffic")
            overlay = substrate.overlay
            het = substrate.het

            def one_lookup() -> float:
                node_delay = (
                    het.slot_delays(overlay.embedding) if het is not None else None
                )
                return single_lookup(
                    overlay, traffic_rng,
                    node_delay=node_delay,
                    ttl=config.flood_ttl,
                    retry_timeout=config.retry_timeout,
                )

            self.traffic = TrafficGenerator(scheduler, one_lookup, config.live_lookup_rate)

        self.world = World(
            config=config,
            rngs=substrate.rngs,
            sim=scheduler,  # duck-typed: LiveScheduler speaks the Simulator vocabulary
            oracle=substrate.oracle,
            overlay=substrate.overlay,
            het=substrate.het,
            engine=self.engine,
            ltm=None,
            churn=self.churn,
            spare_hosts=substrate.spare_hosts,
            transport=self.transport,  # duck-typed: UdpTransport
            tracer=tracer,
        )

    def launch(self) -> None:
        """Protocol t=0: arm the engines, churn processes and load."""
        if self.scheduler is None or self.engine is None:
            raise RuntimeError("start() the swarm before launching")
        if self._launched:
            raise RuntimeError("swarm already launched")
        self._launched = True
        self.scheduler.reset_epoch()
        self._wall_start = self.scheduler.wall_deadline(0.0)
        self.engine.start()
        if self.churn is not None:
            self.churn.start()
        if self.traffic is not None:
            self.traffic.start()
        if self.churn_schedule is not None and self.churn is not None:
            for t, k in self.churn_schedule.stages:
                self.scheduler.schedule_at(t, self._churn_stage, k)

    def _churn_stage(self, k: int) -> None:
        assert self.churn is not None  # scheduled only when churn exists
        for _ in range(k):
            self.churn.replace_random_slot()

    async def run_until(self, t: float) -> None:
        """Let the swarm run until protocol time ``t``."""
        if not self._launched:
            raise RuntimeError("launch() the swarm before running")
        assert self.scheduler is not None
        loop = asyncio.get_running_loop()
        delay = self.scheduler.wall_deadline(t) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)

    async def close(self) -> SwarmReport:
        """Stop load, shut the socket, and compile the report."""
        if self.scheduler is None or self.engine is None or self.transport is None:
            raise RuntimeError("swarm was never started")
        if self.traffic is not None:
            self.traffic.stop()
        # drain datagrams already queued on the loop before the socket goes
        await asyncio.sleep(0)
        duration = self.scheduler.now if self._launched else 0.0
        loop = asyncio.get_running_loop()
        wall = loop.time() - self._wall_start if self._launched else 0.0
        self.engine.finalize_trace()
        self.transport.close()
        if self.tracer is not None:
            self.tracer.close(duration)
        stats = self.transport.stats
        counters = self.engine.counters
        self.report = SwarmReport(
            n_peers=self.transport.n_slots,
            duration=duration,
            speedup=self.scheduler.speedup,
            wall_seconds=wall,
            probes=counters.probes,
            exchanges=counters.exchanges,
            protocol_messages=counters.total_messages,
            datagrams_sent=stats.total_sent,
            datagrams_delivered=stats.total_delivered,
            wire_bytes=self.transport.wire_bytes_sent,
            codec_errors=self.transport.codec_errors,
            handler_errors=self.transport.handler_errors,
            churn_events=self.churn.events if self.churn is not None else 0,
            lookups=self.traffic.lookups if self.traffic is not None else 0,
            mean_lookup_ms=(
                self.traffic.mean_latency_ms
                if self.traffic is not None else math.nan
            ),
            net_stats=stats,
            net_counters=self.engine.net_counters,
            lookup_samples=list(self.traffic.samples) if self.traffic else [],
        )
        return self.report

    async def __aenter__(self) -> "Swarm":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    async def run(self) -> SwarmReport:
        """One-call lifecycle: start, launch, run the full duration, close.

        With no harness samples to feed it, a streaming monitor is fed
        each traffic lookup instead (harness-driven runs feed it theirs).
        """
        async with self:
            monitor = find_monitor(self.tracer.consumers) if self.tracer is not None else None
            if self.traffic is not None and monitor is not None:
                self.traffic.on_sample = monitor.on_sample
            self.launch()
            await self.run_until(self.config.duration)
        assert self.report is not None  # set by close()
        return self.report
