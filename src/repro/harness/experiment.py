"""End-to-end experiment runner.

One :class:`ExperimentConfig` describes a complete simulated deployment —
physical preset, overlay family, optimization protocol (PROP-G / PROP-O /
LTM / none), heterogeneity, churn — and :func:`run_experiment` runs it,
sampling the paper's metrics (stretch, average lookup latency, protocol
overhead counters) on a fixed interval.  Every figure-regeneration
benchmark is a thin sweep over these configs.

World-building is deterministic in ``seed``: two configs differing only
in the protocol field share the *identical* physical network, overlay
graph, heterogeneity assignment and lookup stream, so protocol curves
are directly comparable ("same world, different optimizer").
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from math import inf
from numbers import Integral
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.baselines.ltm import LTMConfig, LTMOptimizer
from repro.baselines.pis import pis_embedding
from repro.baselines.pns import PNSChordOverlay
from repro.core.config import PROPConfig
from repro.core.protocol import PROPEngine
from repro.metrics.stretch import stretch as stretch_metric
from repro.net.engine import MessagePROPEngine, NetConfig
from repro.net.faults import FaultyTransport, PartitionSpec
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.obs.monitor import ConvergenceMonitor, find_monitor
from repro.obs.registry import metrics_snapshot
from repro.obs.trace import Tracer
from repro.overlay.base import Overlay
from repro.overlay.can import CANOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.gnutella import GnutellaOverlay
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.pastry import PastryOverlay
from repro.topology.factory import ORACLE_BACKENDS, build_oracle
from repro.topology.latency import LatencyOracleBase
from repro.topology.presets import build_preset
from repro.workloads.churn import ChurnConfig, ChurnProcess
from repro.workloads.heterogeneity import (
    BimodalDelay,
    bimodal_processing_delay,
    capacity_weights_from_delay,
)
from repro.workloads.lookups import biased_target_pairs, sample_lookups

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prof import KernelProfiler

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "RETRY_TIMEOUT_MS",
    "Substrate",
    "World",
    "build_substrate",
    "build_tracer",
    "build_world",
    "monitor_consumers",
    "run_experiment",
    "sample_lookup_latency",
    "warmup_seconds",
]

#: Requery timeout (ms) a lookup pays when its bounded flood
#: (``flood_ttl``) misses the target, before the unbounded re-flood.
RETRY_TIMEOUT_MS = 4000.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated deployment.

    Parameters mirror the paper's experimental setup (Section 5.1):
    ``preset`` picks the GT-ITM model, ``n_overlay`` the number of peers
    (default 1000), and the protocol fields the optimizer under test.
    """

    seed: int = 0
    preset: str = "ts-large"
    n_overlay: int = 1000
    n_spare: int = 0
    overlay_kind: str = "gnutella"  # gnutella | chord | can | pastry | kademlia
    overlay_options: dict[str, Any] = field(default_factory=dict)
    # latency source: exact Dijkstra submatrix, Vivaldi synthetic
    # coordinates, or landmark triangulation (repro.topology.factory)
    oracle: str = "exact"
    oracle_options: dict[str, Any] = field(default_factory=dict)
    # optimizers (at most one of prop / ltm)
    prop: PROPConfig | None = None
    ltm: LTMConfig | None = None
    # environment
    heterogeneous: bool = False
    fast_fraction: float = 0.5
    fast_ms: float = 1.0
    slow_ms: float = 100.0
    fast_degree_weight: float = 4.0
    fast_lookup_fraction: float | None = None
    churn: ChurnConfig | None = None
    pis_landmarks: int | None = None  # Chord: PIS identifier assignment
    pns: bool = False  # Chord: proximity-selected fingers
    pns_refresh_interval: float | None = None
    # message plane (None = inline engine; "sim" = MessagePROPEngine over
    # the simulator; "udp" = the same engine over repro.live's loopback
    # swarm with wall-clock timers)
    transport: str | None = None
    loss: float = 0.0
    net_jitter_ms: float = 0.0
    reorder_prob: float = 0.0
    partitions: tuple[str, ...] = ()  # PartitionSpec strings, e.g. "a:b@120-300"
    latency_scale: float = 1.0
    net: NetConfig | None = None
    # live deployment plane (transport="udp" only)
    live_speedup: float = 60.0  # protocol seconds per wall second
    live_lookup_rate: float = 0.0  # traffic-generator lookups per protocol second
    # observability
    trace: bool = False  # buffer structured events (repro.obs)
    trace_streaming: bool = False  # dispatch to consumers, discard raw events
    kernel_profile: bool = False  # per-category wall-clock attribution (repro.obs.prof)
    # measurement
    duration: float = 1800.0
    sample_interval: float = 120.0
    lookups_per_sample: int = 1000
    flood_ttl: int | None = None  # None = unbounded flood (exact Dijkstra)

    def __post_init__(self) -> None:
        if self.overlay_kind not in ("gnutella", "chord", "can", "pastry", "kademlia"):
            raise ValueError(f"unknown overlay kind {self.overlay_kind!r}")
        if self.oracle not in ORACLE_BACKENDS:
            raise ValueError(
                f"unknown oracle backend {self.oracle!r}; "
                f"choose from {ORACLE_BACKENDS}"
            )
        if self.prop is not None and self.ltm is not None:
            raise ValueError("configure at most one optimizer (prop or ltm)")
        if self.n_overlay < 8:
            raise ValueError("n_overlay must be >= 8")
        if self.n_spare < 0:
            raise ValueError("n_spare must be >= 0")
        if self.churn is not None and self.n_spare == 0:
            raise ValueError("churn needs n_spare > 0 replacement hosts")
        if self.fast_lookup_fraction is not None and not self.heterogeneous:
            raise ValueError("fast_lookup_fraction requires heterogeneous=True")
        if not 0.0 < self.sample_interval < inf:
            raise ValueError(
                f"sample_interval must be finite and > 0, got {self.sample_interval}")
        if not self.duration < inf:
            raise ValueError(f"duration must be finite, got {self.duration}")
        if self.duration < self.sample_interval:
            raise ValueError("duration must cover at least one sample interval")
        if self.lookups_per_sample < 0:
            raise ValueError(
                f"lookups_per_sample must be >= 0, got {self.lookups_per_sample}")
        if self.flood_ttl is not None and (
            not isinstance(self.flood_ttl, Integral)
            or isinstance(self.flood_ttl, bool) or self.flood_ttl < 0
        ):
            raise ValueError(
                f"flood_ttl must be None or an integer >= 0, got {self.flood_ttl!r}")
        if not 0.0 < self.fast_degree_weight < inf:
            raise ValueError(
                f"fast_degree_weight must be finite and > 0, got {self.fast_degree_weight}")
        if (self.pis_landmarks is not None or self.pns) and self.overlay_kind != "chord":
            raise ValueError("PIS/PNS apply to the chord overlay only")
        if self.trace and self.trace_streaming:
            raise ValueError(
                "trace buffers every raw event and trace_streaming discards "
                "them; enable at most one of the two"
            )
        if self.transport not in (None, "sim", "udp"):
            raise ValueError(
                f"transport must be None, 'sim' or 'udp', got {self.transport!r}"
            )
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if self.transport != "sim" and (
            self.loss or self.net_jitter_ms or self.reorder_prob or self.partitions
        ):
            raise ValueError("fault injection needs transport='sim'")
        if not 0.0 < self.live_speedup < inf:
            raise ValueError(
                f"live_speedup must be finite and > 0, got {self.live_speedup}")
        if not 0.0 <= self.live_lookup_rate < inf:
            raise ValueError(
                f"live_lookup_rate must be finite and >= 0, got {self.live_lookup_rate}"
            )
        if self.live_lookup_rate and self.transport != "udp":
            raise ValueError("live_lookup_rate needs transport='udp'")
        if self.transport is not None and self.prop is None:
            raise ValueError("the message transport runs PROP only; set prop")
        if not 0.0 <= self.latency_scale < inf:
            raise ValueError(
                f"latency_scale must be finite and >= 0, got {self.latency_scale}")
        for spec in self.partitions:
            PartitionSpec.parse(spec)  # raises on malformed specs
        rewiring_optimizer = self.ltm is not None or (
            self.prop is not None and self.prop.policy == "O"
        )
        if rewiring_optimizer and self.overlay_kind != "gnutella":
            raise ValueError(
                "PROP-O and LTM rewire logical edges; only unstructured "
                "(gnutella) overlays tolerate that — use PROP-G on "
                "structured overlays"
            )

    def but(self, **kwargs) -> "ExperimentConfig":
        """Copy with overrides (sweep helper)."""
        return replace(self, **kwargs)


@dataclass
class Substrate:
    """The seed-determined world below any clock or transport.

    Physical network placement, latency oracle, heterogeneity draw and
    overlay graph are functions of the config alone — the simulated and
    live planes construct this *identical* substrate from the same seed,
    which is what makes their trajectories comparable (the sim-vs-real
    parity gate rests on it).
    """

    config: ExperimentConfig
    rngs: RngRegistry
    oracle: LatencyOracleBase
    overlay: Overlay
    het: BimodalDelay | None
    spare_hosts: list[int]


@dataclass
class World:
    """Everything :func:`run_experiment` operates on.

    The live plane (:mod:`repro.live`) assembles the same shape with
    duck-typed substitutes — ``sim`` a
    :class:`~repro.live.clock.LiveScheduler`, ``transport`` a
    :class:`~repro.live.transport.UdpTransport` — so the sampling helpers
    below work on either plane.
    """

    config: ExperimentConfig
    rngs: RngRegistry
    sim: Simulator
    oracle: LatencyOracleBase
    overlay: Overlay
    het: BimodalDelay | None
    engine: PROPEngine | None
    ltm: LTMOptimizer | None
    churn: ChurnProcess | None
    spare_hosts: list[int]
    transport: SimTransport | FaultyTransport | None = None
    tracer: Tracer | None = None


@dataclass
class ExperimentResult:
    """Sampled time series plus final protocol counters.

    ``stretch`` is the routing stretch (overlay route latency over direct
    latency for the sampled queries — the paper's Fig. 6 metric);
    ``link_stretch`` is the link-based form the Section 4.2 analysis
    descends.  ``lookup_latency`` is the mean end-to-end lookup latency
    (the paper's Fig. 5/7 metric).
    """

    config: ExperimentConfig
    times: np.ndarray
    stretch: np.ndarray
    link_stretch: np.ndarray
    lookup_latency: np.ndarray
    probes: np.ndarray  # cumulative probe count at each sample
    messages: np.ndarray  # cumulative protocol messages at each sample
    exchanges: np.ndarray  # cumulative successful exchanges
    final_counters: Any
    net_stats: Any = None  # TransportStats when run over a message transport
    net_counters: Any = None  # NetCounters (timeouts/retries) likewise
    trace: Any = None  # list[repro.obs.events.Event] when config.trace
    kernel_profile: Any = None  # KernelProfile.to_dict() when config.kernel_profile
    consumers: Any = None  # list[TraceConsumer] when streaming/monitoring
    live_metrics: Any = None  # the live plane's wire and lookup-load metrics (udp only)

    @property
    def initial_lookup_latency(self) -> float:
        return float(self.lookup_latency[0])

    @property
    def final_lookup_latency(self) -> float:
        return float(self.lookup_latency[-1])

    @property
    def initial_stretch(self) -> float:
        return float(self.stretch[0])

    @property
    def final_stretch(self) -> float:
        return float(self.stretch[-1])

    def improvement_ratio(self, metric: str = "lookup_latency") -> float:
        """final / initial for the chosen metric (< 1 means improvement)."""
        series = getattr(self, metric)
        return float(series[-1] / series[0])

    def metrics(self) -> dict[str, Any]:
        """The run's one :func:`~repro.obs.registry.metrics_snapshot`."""
        return metrics_snapshot(self.final_counters, self.net_counters,
                                self.net_stats, self.live_metrics)

    def probe_rate(self) -> np.ndarray:
        """Probes per second between consecutive samples."""
        dt = np.diff(self.times)
        return np.diff(self.probes) / np.where(dt > 0, dt, 1.0)


def warmup_seconds(config: ExperimentConfig) -> float:
    """Simulated seconds of PROP's fixed-period warm-up in this run.

    Warm-up is ``MAX_INIT_TRIAL`` probe cycles at ``INIT_TIMER`` seconds
    each (Section 3.2), capped at the run's duration; everything after
    it is Markov-timer maintenance.  Zero without a PROP optimizer.
    """
    if config.prop is None:
        return 0.0
    return min(
        float(config.duration),
        float(config.prop.max_init_trial) * float(config.prop.init_timer),
    )


def monitor_consumers(config: ExperimentConfig) -> ConvergenceMonitor:
    """The config-derived streaming consumer of a monitored run.

    Built from the config alone so a worker process reconstructs the
    identical monitor — its state stays comparable between serial and
    ``--workers N`` execution.  Warm-up end is the run record's phase
    split.
    """
    return ConvergenceMonitor(config.duration, warmup_end=warmup_seconds(config))


def build_tracer(config: ExperimentConfig, clock: Callable[[], float]) -> Tracer | None:
    """The run's tracer on either plane: ``trace`` buffers every event,
    ``trace_streaming`` streams them to the run's monitor; neither, none."""
    if not (config.trace or config.trace_streaming):
        return None
    return Tracer(
        clock=clock,
        streaming=config.trace_streaming,
        consumers=[monitor_consumers(config)] if config.trace_streaming else (),
    )


def build_substrate(config: ExperimentConfig) -> Substrate:
    """Construct the seed-determined substrate (network, oracle, overlay)."""
    rngs = RngRegistry(config.seed)
    net = build_preset(config.preset, rngs.stream("topology"))

    stub = net.stub_hosts
    need = config.n_overlay + config.n_spare
    if need > stub.size:
        raise ValueError(
            f"preset {config.preset!r} has {stub.size} stub hosts; "
            f"cannot place {need} overlay+spare members"
        )
    members = rngs.stream("membership").choice(stub, size=need, replace=False)
    # the Vivaldi fit draws from its own named stream derived from the
    # master seed, so backend choice never perturbs any other component
    oracle = build_oracle(
        config.oracle, net, members,
        seed=config.seed, options=config.oracle_options,
    )

    het: BimodalDelay | None = None
    if config.heterogeneous:
        het = bimodal_processing_delay(
            need,
            rngs.stream("heterogeneity"),
            fast_fraction=config.fast_fraction,
            fast_ms=config.fast_ms,
            slow_ms=config.slow_ms,
        )

    overlay_embedding = np.arange(config.n_overlay, dtype=np.intp)
    spare_hosts = list(range(config.n_overlay, need))
    overlay = _build_overlay(config, oracle, overlay_embedding, het, rngs)
    return Substrate(
        config=config,
        rngs=rngs,
        oracle=oracle,
        overlay=overlay,
        het=het,
        spare_hosts=spare_hosts,
    )


def build_world(config: ExperimentConfig) -> World:
    """Construct the physical network, overlay, and optimizer stack."""
    if config.transport == "udp":
        raise ValueError(
            "build_world assembles the simulated plane; transport='udp' "
            "worlds are assembled by repro.live.swarm.Swarm (or run the "
            "config through run_experiment, which delegates)"
        )
    substrate = build_substrate(config)
    rngs = substrate.rngs
    oracle = substrate.oracle
    overlay = substrate.overlay
    het = substrate.het
    spare_hosts = substrate.spare_hosts

    sim = Simulator()
    tracer = build_tracer(config, lambda: sim.now)
    engine: PROPEngine | None = None
    ltm: LTMOptimizer | None = None
    transport: SimTransport | FaultyTransport | None = None
    if config.prop is not None:
        if config.transport is not None:
            transport = _build_transport(config, sim, overlay, rngs, tracer)
            engine = MessagePROPEngine(
                overlay, config.prop, sim, rngs, transport,
                net=config.net, tracer=tracer,
            )
        else:
            engine = PROPEngine(overlay, config.prop, sim, rngs, tracer=tracer)
        engine.start()
    elif config.ltm is not None:
        ltm = LTMOptimizer(overlay, config.ltm, sim, rngs)
        ltm.start()

    churn: ChurnProcess | None = None
    if config.churn is not None:
        on_replace = engine.reset_slot if engine is not None else None
        churn = ChurnProcess(
            overlay,
            config.churn,
            sim,
            rngs.stream("churn"),
            spare_hosts,
            on_replace=on_replace,
            tracer=tracer,
        )
        churn.start()

    if config.pns and config.pns_refresh_interval is not None:
        assert isinstance(overlay, PNSChordOverlay)
        sim.every(config.pns_refresh_interval, overlay.refresh)

    return World(
        config=config,
        rngs=rngs,
        sim=sim,
        oracle=oracle,
        overlay=overlay,
        het=het,
        engine=engine,
        ltm=ltm,
        churn=churn,
        spare_hosts=spare_hosts,
        transport=transport,
        tracer=tracer,
    )


def _build_transport(
    config: ExperimentConfig,
    sim: Simulator,
    overlay: Overlay,
    rngs: RngRegistry,
    tracer: Tracer | None = None,
) -> SimTransport | FaultyTransport:
    """The message plane: SimTransport, fault-wrapped when faults are on."""
    base = SimTransport(sim, overlay, latency_scale=config.latency_scale, tracer=tracer)
    specs = [PartitionSpec.parse(s) for s in config.partitions]
    if not (config.loss or config.net_jitter_ms or config.reorder_prob or specs):
        return base
    transport = FaultyTransport(
        base,
        rngs.stream("net:faults"),
        loss=config.loss,
        jitter_ms=config.net_jitter_ms,
        reorder_prob=config.reorder_prob,
    )
    for spec in specs:
        spec.install(transport, sim, overlay.n_slots)
    return transport


def _build_overlay(
    config: ExperimentConfig,
    oracle: LatencyOracleBase,
    embedding: np.ndarray,
    het: BimodalDelay | None,
    rngs: RngRegistry,
) -> Overlay:
    kind = config.overlay_kind
    opts = dict(config.overlay_options)
    rng = rngs.stream(f"overlay:{kind}")
    if kind == "gnutella":
        if het is not None:
            opts.setdefault(
                "capacity_weight",
                capacity_weights_from_delay(het, embedding, fast_weight=config.fast_degree_weight),
            )
        return GnutellaOverlay.build(oracle, rng, embedding=embedding, **opts)
    if kind == "chord":
        if config.pis_landmarks is not None:
            full = pis_embedding(oracle, rngs.stream("pis"), n_landmarks=config.pis_landmarks)
            embedding = full[np.isin(full, embedding)]
        else:
            embedding = rng.permutation(embedding)
        cls = PNSChordOverlay if config.pns else ChordOverlay
        return cls.build(oracle, rng, embedding=embedding, **opts)
    if kind == "can":
        return CANOverlay.build(oracle, rng, embedding=rng.permutation(embedding), **opts)
    if kind == "pastry":
        return PastryOverlay.build(oracle, rng, embedding=rng.permutation(embedding), **opts)
    if kind == "kademlia":
        return KademliaOverlay.build(oracle, rng, embedding=rng.permutation(embedding), **opts)
    raise AssertionError(f"unhandled overlay kind {kind}")


def sample_lookup_latency(world: World) -> tuple[float, float]:
    """(mean lookup latency, mean direct latency) on a fresh workload draw.

    The ratio of the two is the routing stretch of this sample; the
    workload stream is a persistent named RNG, so successive samples see
    fresh-but-reproducible draws and two configs sharing a seed see the
    *same* query sequence.  With ``lookups_per_sample == 0`` there is
    nothing to sample: both means are NaN and no workload is drawn.
    """
    config = world.config
    overlay = world.overlay
    k = config.lookups_per_sample
    if k == 0:
        return np.nan, np.nan
    rng = world.rngs.stream("lookup-workload")
    node_delay = world.het.slot_delays(overlay.embedding) if world.het is not None else None
    draw_pairs = None
    if config.fast_lookup_fraction is not None:
        assert world.het is not None
        draw_pairs = partial(
            biased_target_pairs,
            world.het.fast_slots(overlay.embedding),
            world.het.slow_slots(overlay.embedding),
            config.fast_lookup_fraction,
        )
    mean_lookup, src, dst = sample_lookups(
        overlay, k, rng,
        node_delay=node_delay,
        ttl=config.flood_ttl,
        retry_timeout=RETRY_TIMEOUT_MS,
        draw_pairs=draw_pairs,
    )
    emb = overlay.embedding
    return mean_lookup, float(overlay.oracle.pairwise(emb[src], emb[dst]).mean())


class _Sampler:
    """The six sampled series and the one per-sample step, on either plane.

    ``sample(i)`` measures the world as it stands at ``times[i]``:
    stretch and lookups (the kernel profile's ``sample`` category), the
    optimizer's counters, the convergence monitor and ``sample_hook``.
    """

    def __init__(self, world: World, measure_lookups: bool, sample_hook: Any,
                 kprof: KernelProfiler | None = None) -> None:
        config = world.config
        n_samples = int(np.floor(config.duration / config.sample_interval)) + 1
        self.world = world
        self.times = np.arange(n_samples) * config.sample_interval
        self.link_stretch = np.empty(n_samples)
        self.stretch = np.full(n_samples, np.nan)
        self.lookup_latency = np.full(n_samples, np.nan)
        self.probes = np.zeros(n_samples, dtype=np.int64)
        self.messages = np.zeros(n_samples, dtype=np.int64)
        self.exchanges = np.zeros(n_samples, dtype=np.int64)
        self._measure_lookups = measure_lookups
        self._sample_hook = sample_hook
        self._kprof = kprof
        self._monitor = (
            find_monitor(world.tracer.consumers) if world.tracer is not None else None
        )

    def sample(self, i: int) -> None:
        world, t = self.world, float(self.times[i])
        with self._kprof.stage("sample") if self._kprof is not None else nullcontext():
            self.link_stretch[i] = stretch_metric(world.overlay)
            if self._measure_lookups:
                mean_lookup, mean_direct = sample_lookup_latency(world)
                self.lookup_latency[i] = mean_lookup
                self.stretch[i] = (
                    mean_lookup / mean_direct if mean_direct > 0 else np.nan
                )
        if world.engine is not None:
            self.probes[i] = world.engine.counters.probes
            self.messages[i] = world.engine.counters.total_messages
            self.exchanges[i] = world.engine.counters.exchanges
        elif world.ltm is not None:
            self.probes[i] = world.ltm.counters.rounds
            self.messages[i] = world.ltm.counters.detector_messages
            self.exchanges[i] = world.ltm.counters.cuts + world.ltm.counters.adds
        monitor = self._monitor
        if monitor is not None and self.lookup_latency[i] == self.lookup_latency[i]:
            monitor.on_sample(t, float(self.lookup_latency[i]))
        if self._sample_hook is not None:
            self._sample_hook(t, monitor.status() if monitor is not None else None)

    def result(self) -> ExperimentResult:
        world, kprof, tracer = self.world, self._kprof, self.world.tracer
        engine = world.engine
        final = engine.counters if engine is not None else (
            world.ltm.counters if world.ltm is not None else None
        )
        return ExperimentResult(
            config=world.config,
            times=self.times,
            stretch=self.stretch,
            link_stretch=self.link_stretch,
            lookup_latency=self.lookup_latency,
            probes=self.probes,
            messages=self.messages,
            exchanges=self.exchanges,
            final_counters=final,
            net_stats=world.transport.stats if world.transport is not None else None,
            net_counters=(
                engine.net_counters if isinstance(engine, MessagePROPEngine) else None
            ),
            trace=tracer.events if tracer is not None and not tracer.streaming else None,
            kernel_profile=(
                kprof.finish(sim_seconds=float(self.times[-1])).to_dict()
                if kprof is not None
                else None
            ),
            consumers=(
                list(tracer.consumers) if tracer is not None and tracer.consumers else None
            ),
        )


def run_experiment(
    config: ExperimentConfig,
    *,
    measure_lookups: bool = True,
    consumers: Any = None,
    sample_hook: Any = None,
) -> ExperimentResult:
    """Run the deployment and sample metrics every ``sample_interval``.

    The ``times[0]`` sample is taken *before* any protocol activity, so
    series are directly interpretable as improvement-over-initial.
    With ``config.kernel_profile`` the wall-clock split between world
    building (``build``), the event categories between samples and
    metric sampling (``sample``) lands in the result's
    ``kernel_profile`` field.  With ``transport="udp"`` the same
    sampling runs on a loopback :class:`~repro.live.swarm.Swarm`
    between wall-clock waits (must be called outside any running event
    loop); there each wait is a profile window, the transport files its
    handler calls under ``deliver:<T>``, and ``untracked`` is mostly
    the idle loop.

    ``consumers`` are extra :class:`~repro.obs.trace.TraceConsumer`
    subscribers added to the run's tracer (requires ``config.trace`` or
    ``config.trace_streaming``).  The run's
    :class:`~repro.obs.monitor.ConvergenceMonitor`, when one is
    subscribed, is additionally fed every finite lookup-latency sample,
    and ``sample_hook(t, status)`` is called after each sampling step
    with its :class:`~repro.obs.monitor.MonitorStatus` (or None) — the
    CLI's ``--monitor`` progress line hangs off it.
    """
    if consumers and not (config.trace or config.trace_streaming):
        raise ValueError("consumers need config.trace or config.trace_streaming")
    if config.transport == "udp":
        # the live plane owns its event loop and wall clock; imported
        # lazily so sim-only deployments never touch asyncio
        import asyncio

        return asyncio.run(_run_live(config, measure_lookups, consumers, sample_hook))

    kprof = _profiler(config)
    with kprof.stage("build") if kprof is not None else nullcontext():
        world = build_world(config)
    if kprof is not None:
        world.sim.profiler = kprof
    if consumers:
        assert world.tracer is not None  # checked against the config above
        for consumer in consumers:
            world.tracer.add_consumer(consumer)
    sampler = _Sampler(world, measure_lookups, sample_hook, kprof)
    for i, t in enumerate(sampler.times):
        world.sim.run_until(float(t))
        sampler.sample(i)
    if isinstance(world.engine, MessagePROPEngine):
        # exchanges still awaiting votes when the run ends are recorded
        # as aborted so the trace has no half-open 2PC exchanges
        world.engine.finalize_trace()
    if world.tracer is not None:
        world.tracer.close(float(sampler.times[-1]))
    return sampler.result()


def _profiler(config: ExperimentConfig) -> KernelProfiler | None:
    if not config.kernel_profile:
        return None
    from repro.obs.prof import KernelProfiler

    return KernelProfiler()


async def _run_live(
    config: ExperimentConfig, measure_lookups: bool, consumers: Any, sample_hook: Any,
) -> ExperimentResult:
    """The live plane's sampling loop: the same samples, awaited in wall time."""
    from repro.live.swarm import Swarm

    kprof = _profiler(config)
    swarm = Swarm(config, consumers=consumers)
    with kprof.stage("build") if kprof is not None else nullcontext():
        await swarm.start()
    world, transport = swarm.world, swarm.transport
    assert world is not None and transport is not None  # set by start()
    transport.profiler = kprof
    sampler = _Sampler(world, measure_lookups, sample_hook, kprof)
    try:
        # the t=0 sample precedes any protocol activity: the engines are
        # armed only by launch(), after it completes
        sampler.sample(0)
        swarm.launch()
        for i in range(1, len(sampler.times)):
            if kprof is not None:
                kprof.begin_window()
            await swarm.run_until(float(sampler.times[i]))
            if kprof is not None:
                kprof.end_window(world.sim)
            sampler.sample(i)
    finally:
        # close() drains queued datagrams outside any window
        transport.profiler = None
        # finalizes the trace and closes the tracer at the swarm's clock
        await swarm.close()
    result = sampler.result()
    result.live_metrics = transport.wire_counters()
    if swarm.traffic is not None:
        result.live_metrics.update(swarm.traffic.metrics())
    return result
