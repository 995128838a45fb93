"""The swarm orchestrator: N live peers running PROP end to end.

:class:`Swarm` assembles a complete deployment from an
:class:`~repro.harness.experiment.ExperimentConfig` with
``transport="udp"``: the seed-determined substrate (identical to the
simulated plane's, via
:func:`~repro.harness.experiment.build_substrate`), one
:class:`~repro.live.transport.UdpTransport` socket shared by every
peer, a :class:`~repro.net.engine.MessagePROPEngine` driving every slot's state
machine on the shared :class:`~repro.live.clock.LiveScheduler`, plus the
optional load pieces — churn (``config.churn``, the same
:class:`~repro.workloads.churn.ChurnConfig` window the simulated plane
runs) and a :class:`~repro.live.traffic.TrafficGenerator` at
``config.live_lookup_rate`` lookups per protocol second.

Lifecycle::

    swarm = Swarm(config)
    await swarm.start()          # substrate + socket, no traffic yet
    swarm.launch()               # protocol t=0: arm engines, churn, load
    await swarm.run_until(config.duration)
    report = await swarm.close() # SwarmReport

:func:`~repro.harness.experiment.run_experiment` with ``transport="udp"``
is the one driver of that lifecycle: it interleaves the same metric
sampling it runs on the simulated plane.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.harness.experiment import (
    RETRY_TIMEOUT_MS,
    ExperimentConfig,
    World,
    build_substrate,
    build_tracer,
)
from repro.live.clock import LiveScheduler
from repro.live.traffic import TrafficGenerator, single_lookup
from repro.live.transport import UdpTransport
from repro.net.engine import MessagePROPEngine
from repro.net.transport import TransportStats
from repro.obs.trace import TraceConsumer, Tracer
from repro.workloads.churn import ChurnProcess

__all__ = ["Swarm", "SwarmReport"]


@dataclass
class SwarmReport:
    """What a finished swarm run measured, beyond the run record's
    metrics (:meth:`~repro.live.transport.UdpTransport.wire_counters`,
    :meth:`~repro.live.traffic.TrafficGenerator.metrics`).

    ``datagrams_sent`` counts datagrams, not messages: a ping fan-out is
    one datagram and ``len(dsts)`` messages in ``net_stats``."""

    probes: int
    datagrams_sent: int
    codec_errors: int
    net_stats: TransportStats
    lookup_samples: list[tuple[float, float]] = field(default_factory=list)


class Swarm:
    """Spawn-and-drive orchestrator for a loopback PROP deployment.

    Parameters
    ----------
    config:
        Must have ``transport="udp"`` and a PROP policy; the substrate
        (preset, overlay, oracle, heterogeneity) is built exactly as the
        simulated plane builds it.
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
        consumers: list[TraceConsumer] | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        if config.transport != "udp":
            raise ValueError(f"Swarm needs transport='udp', got {config.transport!r}")
        self.config = config
        self._extra_consumers = list(consumers) if consumers else []
        self._host = host
        self.world: World | None = None
        self.scheduler: LiveScheduler | None = None
        self.transport: UdpTransport | None = None
        self.engine: MessagePROPEngine | None = None
        self.churn: ChurnProcess | None = None
        self.traffic: TrafficGenerator | None = None
        self.tracer: Tracer | None = None
        self._launched = False

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
        assert config.prop is not None  # ExperimentConfig: transport needs prop
        self.engine = MessagePROPEngine(
            substrate.overlay, config.prop, scheduler, substrate.rngs,
            self.transport, tracer=tracer,
        )

        if config.churn is not None:
            self.churn = ChurnProcess(
                substrate.overlay,
                config.churn,
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
                    retry_timeout=RETRY_TIMEOUT_MS,
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
        self.engine.start()
        if self.churn is not None:
            self.churn.start()
        if self.traffic is not None:
            self.traffic.start()

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
        duration = self.scheduler.now if self._launched else 0.0
        # deliver the receive queue's backlog before the socket goes
        self.transport.drain()
        self.engine.finalize_trace()
        self.transport.close()
        if self.tracer is not None:
            self.tracer.close(duration)
        return SwarmReport(
            probes=self.engine.counters.probes,
            datagrams_sent=self.transport.datagrams_sent,
            codec_errors=self.transport.codec_errors,
            net_stats=self.transport.stats,
            lookup_samples=list(self.traffic.samples) if self.traffic else [],
        )
