"""Fixed-size microbenchmarks: one number per layer operation.

Every traced run executes all of them, whatever its workload, on a
seed-determined ts-large n=1000 world, so each value answers "what does
one call into this layer cost" independently of how often a workload
makes it.  Each timing is the median of a few batches of public-API
calls; nothing here reaches into a private attribute.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any, Callable

import numpy as np

from repro.core.exchange import execute_prop_g, execute_prop_o
from repro.core.neighbor_queue import NeighborQueue
from repro.core.varcalc import evaluate_prop_g, select_prop_o
from repro.core.walk import random_walk
from repro.harness.experiment import (
    ExperimentConfig,
    World,
    build_world,
    sample_lookup_latency,
)
from repro.live import codec
from repro.live.clock import LiveScheduler
from repro.live.swarm import Swarm
from repro.live.transport import UdpTransport
from repro.metrics.stretch import stretch
from repro.net import messages as m
from repro.net.faults import FaultyTransport
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.obs.prof import KernelProfiler
from repro.overlay.base import Overlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.gnutella import GnutellaOverlay
from repro.topology.factory import build_oracle
from repro.topology.presets import build_preset

from defs import WORKLOAD_BY_NAME

Metrics = dict[str, float]
N = 1000
BATCHES = 3


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _median_of(fn: Callable[[], float]) -> float:
    return statistics.median(fn() for _ in range(BATCHES))


def _per_op(fn: Callable[[int], None], ops: int) -> float:
    """Median seconds per operation over BATCHES calls of ``fn(ops)``."""
    return _median_of(lambda: _timed(lambda: fn(ops))[0]) / ops


def calibration() -> float:
    """A fixed pure-Python + numpy loop.  Stored with every result so
    rows from different machines are never compared raw."""
    def work() -> None:
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        a = np.arange(160_000, dtype=np.float64).reshape(400, 400)
        for _ in range(8):
            a = (a @ a.T) / (np.abs(a).max() ** 2 + 1.0)
    return _median_of(lambda: _timed(work)[0])


# -- topology / overlay / metrics ---------------------------------------

def _world(seed: int, out: Metrics) -> tuple[World, World]:
    """The microbench world, assembled piece by piece so each layer's
    build is timed on its own: (gnutella world, chord world)."""
    rngs = RngRegistry(seed)
    net = build_preset("ts-large", rngs.stream("topology"))
    members = rngs.stream("membership").choice(net.stub_hosts, size=N, replace=False)
    dt, oracle = _timed(lambda: build_oracle("exact", net, members))
    out["topology.oracle_exact_build_s.n1000"] = dt
    out["topology.oracle_landmark_build_s.n1000"] = _timed(
        lambda: build_oracle("landmark", net, members))[0]
    out["topology.oracle_vivaldi_build_s.n1000"] = _timed(
        lambda: build_oracle("vivaldi", net, members, seed=seed))[0]
    slots = np.arange(N, dtype=np.intp)
    dt, gnutella = _timed(lambda: GnutellaOverlay.build(
        oracle, rngs.stream("overlay:gnutella"), embedding=slots))
    out["overlay.gnutella_build_s.n1000"] = dt
    chord_rng = rngs.stream("overlay:chord")
    ring = chord_rng.permutation(slots)
    dt, chord = _timed(lambda: ChordOverlay.build(oracle, chord_rng, embedding=ring))
    out["overlay.chord_build_s.n1000"] = dt
    config = ExperimentConfig(seed=seed, n_overlay=N, lookups_per_sample=1000)
    worlds = []
    for overlay, kind in ((gnutella, "gnutella"), (chord, "chord")):
        worlds.append(World(
            config=config.but(overlay_kind=kind), rngs=rngs, sim=Simulator(),
            oracle=oracle, overlay=overlay, het=None, engine=None, ltm=None,
            churn=None, spare_hosts=[],
        ))
    return worlds[0], worlds[1]


def _topology_ops(world: World, rng: np.random.Generator, out: Metrics) -> None:
    oracle = world.oracle
    others = rng.choice(N, size=8, replace=False)  # a degree-sized index

    def to_many(ops: int) -> None:
        for i in range(ops):
            oracle.to_many(i % N, others)

    def sum_to(ops: int) -> None:
        for i in range(ops):
            oracle.sum_to(i % N, others)

    out["topology.oracle_to_many_ns"] = _per_op(to_many, 20_000) * 1e9
    out["topology.oracle_sum_to_ns"] = _per_op(sum_to, 20_000) * 1e9


def _lookups(gnutella: World, chord: World, rng: np.random.Generator, out: Metrics) -> None:
    g, c = gnutella.overlay, chord.overlay
    assert isinstance(g, GnutellaOverlay) and isinstance(c, ChordOverlay)
    pairs = rng.integers(0, N, size=(300, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    out["overlay.flood_lookup_us.n1000"] = _median_of(
        lambda: _timed(lambda: g.mean_lookup_latency(pairs))[0]) / len(pairs) * 1e6
    keys = rng.integers(0, c.space, size=2000)

    def chord_lookups(ops: int) -> None:
        for i in range(ops):
            c.lookup_latency(i % N, int(keys[i]))

    out["overlay.chord_lookup_us.n1000"] = _per_op(chord_lookups, len(keys)) * 1e6
    out["metrics.link_stretch_us.n1000"] = _per_op(
        lambda ops: [stretch(g) for _ in range(ops)], 200) * 1e6
    out["metrics.sample_lookup_s.n1000"] = _median_of(
        lambda: _timed(lambda: sample_lookup_latency(gnutella))[0])
    out["metrics.sample_lookup_s.chord1000"] = _median_of(
        lambda: _timed(lambda: sample_lookup_latency(chord))[0])


# -- core ----------------------------------------------------------------

def _core(gnutella: Overlay, chord: Overlay, rng: np.random.Generator, out: Metrics) -> None:
    ops = 2000
    us = rng.integers(0, N, size=ops)
    walks: list[tuple[int, int, list[int]]] = []  # (u, target, path) on gnutella

    def walk(k: int) -> None:
        walks.clear()
        for u in us[:k]:
            u = int(u)
            v, path = random_walk(gnutella, u, gnutella.neighbor_list(u)[0], 2, rng)
            walks.append((u, v, path))

    out["core.walk_us"] = _per_op(walk, ops) * 1e6
    pairs = [(u, v, p) for u, v, p in walks if u != v]

    def var_g(overlay: Overlay) -> float:
        cand = [(u, v) for u, v, _ in pairs]
        return _per_op(lambda k: [evaluate_prop_g(overlay, u, v) for u, v in cand[:k]],
                       len(cand)) * 1e6

    out["core.var_g_us.gnutella"] = var_g(gnutella)
    out["core.var_g_us.chord"] = var_g(chord)

    m_size = int(gnutella.min_degree())

    def select_o(k: int) -> None:
        for u, v, path in pairs[:k]:
            select_prop_o(gnutella, u, v, m_size, forbidden=set(path))

    out["core.select_o_us"] = _per_op(select_o, len(pairs)) * 1e6

    # exchanges mutate, so each batch works on a fresh frozen copy
    def exchange_g(k: int) -> None:
        scratch = gnutella.copy()
        for u, v, _ in pairs[:k]:
            execute_prop_g(scratch, u, v)

    out["core.exchange_g_us"] = _per_op(exchange_g, len(pairs)) * 1e6

    def exchange_o() -> float:
        scratch = gnutella.copy()
        spent, done = 0, 0
        for u, v, path in pairs:
            # re-select on the mutating copy so every trade is legal
            give_u, give_v, _ = select_prop_o(scratch, u, v, m_size, forbidden=set(path))
            if not give_u:
                continue
            t0 = time.perf_counter_ns()
            execute_prop_o(scratch, u, v, give_u, give_v)
            spent += time.perf_counter_ns() - t0
            done += 1
        return spent / max(done, 1) / 1e3

    out["core.exchange_o_us"] = _median_of(exchange_o)

    neighbors = gnutella.neighbor_list(int(np.argsort(gnutella.degree_sequence())[N // 2]))
    queue = NeighborQueue(neighbors, rng)

    def queue_cycle(k: int) -> None:
        for _ in range(k):
            queue.sync(neighbors)
            queue.on_failure(queue.select())

    out["core.neighborq_cycle_ns"] = _per_op(queue_cycle, 20_000) * 1e9


# -- netsim --------------------------------------------------------------

def _noop(*_: Any) -> None:
    pass


def _netsim(out: Metrics) -> None:
    live_events, horizon = 1000, 30.0  # 1000 live events, 30 firings each

    def ns_per_event(arm: Callable[[Simulator], Callable[[int], None]]) -> float:
        sim = Simulator()
        tick = arm(sim)
        for i in range(live_events):
            sim.schedule(i / live_events, tick, i)
        dt, executed = _timed(lambda: sim.run_until(horizon))
        return dt / executed * 1e9

    def null_event(sim: Simulator) -> Callable[[int], None]:
        def tick(i: int) -> None:
            sim.schedule(1.0, tick, i)
        return tick

    def cancel_rearm(sim: Simulator) -> Callable[[int], None]:
        # every firing cancels its pending timeout and arms a new one, the
        # message plane's per-cycle timer pattern
        timeouts = [sim.schedule(5.0, _noop) for _ in range(live_events)]

        def tick(i: int) -> None:
            timeouts[i].cancel()
            timeouts[i] = sim.schedule(5.0, _noop)
            sim.schedule(1.0, tick, i)
        return tick

    out["netsim.null_event_ns"] = _median_of(lambda: ns_per_event(null_event))
    out["netsim.cancel_rearm_ns"] = _median_of(lambda: ns_per_event(cancel_rearm))


# -- net -----------------------------------------------------------------

def _transports(gnutella: Overlay, seed: int, out: Metrics) -> None:
    src, dst = gnutella.edge_arrays()
    edges = list(zip(src.tolist(), dst.tolist()))
    n_msgs = 8_000

    def send_deliver(faulty: bool) -> float:
        sim = Simulator()
        transport: Any = SimTransport(sim, gnutella)
        if faulty:
            rng = RngRegistry(seed).stream("net:faults")
            transport = FaultyTransport(transport, rng, loss=0.1, jitter_ms=20.0,
                                        reorder_prob=0.05)
        for slot in range(N):
            transport.register(slot, _noop)

        def work() -> None:
            for i in range(n_msgs):
                a, b = edges[i % len(edges)]
                transport.send(m.VarProbe(src=a, dst=b, cycle=i))
            sim.run()

        return _timed(work)[0] / n_msgs * 1e9

    out["net.sim_send_deliver_ns"] = _median_of(lambda: send_deliver(False))
    out["net.faulty_send_deliver_ns"] = _median_of(lambda: send_deliver(True))


def _message_plane(seed: int, out: Metrics) -> None:
    """A small message-plane run three ways: plain, span-traced, and
    kernel-profiled (per-category ns / call)."""
    config = WORKLOAD_BY_NAME["msgplane_clean"].config(seed).but(
        n_overlay=200, duration=1800.0, sample_interval=1800.0)

    def run(cfg: ExperimentConfig, profiler: KernelProfiler | None = None) -> float:
        world = build_world(cfg)
        world.sim.profiler = profiler
        return _timed(lambda: world.sim.run_until(cfg.duration))[0]

    def best(cfg: ExperimentConfig) -> float:
        return min(run(cfg) for _ in range(BATCHES))

    plain = run(config)
    out["obs.spans_overhead_ratio"] = run(config.but(trace=True)) / plain
    kprof = KernelProfiler()
    run(config, kprof)
    profile = kprof.finish()
    for category, count in profile.counts.items():
        kind, _, name = category.partition(":")
        if kind == "deliver" and name != "EXCHANGE_ABORT":
            out[f"net.deliver_{name}_us"] = profile.categories[category] / count / 1e3
    out["net.timer_probe_us"] = (
        profile.categories["timer:probe"] / profile.counts["timer:probe"] / 1e3)

    inline = WORKLOAD_BY_NAME["fig5a_inline"].config(seed).but(
        n_overlay=200, sample_interval=3600.0, lookups_per_sample=0)
    # a 0.1 s run region: one disturbed arm would swing the ratio
    out["obs.events_overhead_ratio"] = best(inline.but(trace=True)) / best(inline)


# -- live ----------------------------------------------------------------

#: Messages per probe cycle on msgplane_clean at seed 0 (transport
#: ``stats.sent`` / probes, rounded): the codec corpus keeps this mix.
_TYPE_MIX = {
    "WALK": 200, "VAR_PROBE": 1300, "VAR_REPLY": 100, "EXCHANGE_PREPARE": 10,
    "EXCHANGE_COMMIT": 10, "EXCHANGE_ABORT": 1, "NOTIFY": 150,
}


def _corpus() -> list[m.Message]:
    path, nbrs = (3, 17, 42), tuple(range(100, 108))
    proto: dict[str, m.Message] = {
        "WALK": m.Walk(src=3, dst=17, origin=3, ttl=1, cycle=9, path=path[:2]),
        "VAR_PROBE": m.VarProbe(src=42, dst=100, cycle=9),
        "VAR_REPLY": m.VarReply(src=42, dst=3, cycle=9, candidate=42, ok=True,
                                path=path, cand_neighbors=nbrs),
        "EXCHANGE_PREPARE": m.ExchangePrepare(src=3, dst=42, xid=5, cycle=9, policy="G",
                                              var=12.5, give_u=(), give_v=()),
        "EXCHANGE_COMMIT": m.ExchangeCommit(src=42, dst=3, xid=5),
        "EXCHANGE_ABORT": m.ExchangeAbort(src=42, dst=3, xid=5, reason="stale"),
        "NOTIFY": m.Notify(src=3, dst=100, xid=5, commit=False),
    }
    assert set(proto) == set(m.MSG_TYPES)
    return [proto[t] for t, k in _TYPE_MIX.items() for _ in range(k)]


def _codec(out: Metrics) -> None:
    corpus = _corpus()
    wire = [codec.encode(msg) for msg in corpus]
    out["live.codec_bytes_per_msg"] = sum(map(len, wire)) / len(wire)
    out["live.codec_encode_ns"] = _per_op(
        lambda k: [codec.encode(msg) for msg in corpus], len(corpus)) * 1e9
    out["live.codec_decode_ns"] = _per_op(
        lambda k: [codec.decode(data) for data in wire], len(wire)) * 1e9
    assert [codec.decode(d) for d in wire] == corpus


class LoopLagSampler:
    """How late does a ``call_later`` callback run?  Keeps every sample
    (the repo's own sampler keeps mean and max only)."""

    def __init__(self, loop: asyncio.AbstractEventLoop, interval: float = 0.01) -> None:
        self.loop, self.interval = loop, interval
        self.lags_ms: list[float] = []
        self._due = loop.time() + interval
        self._handle = loop.call_later(interval, self._tick)

    def _tick(self) -> None:
        now = self.loop.time()
        self.lags_ms.append(max(0.0, now - self._due) * 1e3)
        self._due = now + self.interval
        self._handle = self.loop.call_later(self.interval, self._tick)

    def stop(self) -> None:
        self._handle.cancel()


async def _udp_round_trips(n: int = 2000) -> float:
    """p50 µs from ``send`` to the destination handler: two slots, one
    datagram in flight, closed loop."""
    loop = asyncio.get_running_loop()
    transport = await UdpTransport.create(LiveScheduler(loop, 1.0), 2)
    done: asyncio.Future[None] = loop.create_future()
    latencies: list[float] = []
    sent_at = 0.0

    def send() -> None:
        nonlocal sent_at
        sent_at = time.perf_counter()
        transport.send(m.VarProbe(src=0, dst=1, cycle=len(latencies)))

    def on_message(_: m.Message) -> None:
        latencies.append(time.perf_counter() - sent_at)
        if len(latencies) < n:
            send()
        elif not done.done():
            done.set_result(None)

    transport.register(1, on_message)
    try:
        send()
        await asyncio.wait_for(done, timeout=30.0)
    finally:
        transport.close()
    return float(np.percentile(latencies, 50)) * 1e6


async def _mini_swarm(seed: int, out: Metrics) -> None:
    """The live workload's world for 600 protocol-s with lookup traffic
    on and loop lag sampled: the live plane's per-datagram numbers."""
    config = WORKLOAD_BY_NAME["live_udp"].config(seed).but(
        duration=600.0, sample_interval=600.0, live_lookup_rate=1.0)
    swarm = Swarm(config)
    await swarm.start()
    lag = None
    try:
        cpu0 = time.process_time()
        swarm.launch()
        lag = LoopLagSampler(asyncio.get_running_loop())
        await swarm.run_until(config.duration)
    finally:
        if lag is not None:
            lag.stop()
        report = await swarm.close()
    cpu = time.process_time() - cpu0
    out["live.cpu_us_per_datagram"] = cpu / report.datagrams_sent * 1e6
    out["live.datagrams_per_probe"] = report.datagrams_sent / report.probes
    out["live.loop_lag_p50_ms"] = float(np.percentile(lag.lags_ms, 50))
    out["live.loop_lag_p95_ms"] = float(np.percentile(lag.lags_ms, 95))
    lookups = [ms for _, ms in report.lookup_samples]
    for q in (50, 95, 99):
        out[f"live.lookup_p{q}_ms"] = float(np.percentile(lookups, q))


async def _live(seed: int, out: Metrics) -> None:
    out["live.udp_send_to_handler_us"] = await _udp_round_trips()
    await _mini_swarm(seed, out)


def run_all(seed: int, *, live: bool) -> Metrics:
    """Every microbenchmark; ``live=False`` skips the loopback ones."""
    out: Metrics = {}
    rng = np.random.default_rng(seed)  # benchmark-owned: picks probe inputs only
    gnutella, chord = _world(seed, out)
    _topology_ops(gnutella, rng, out)
    _lookups(gnutella, chord, rng, out)
    _core(gnutella.overlay, chord.overlay, rng, out)
    _netsim(out)
    _transports(gnutella.overlay, seed, out)
    _message_plane(seed, out)
    _codec(out)
    if live:
        asyncio.run(_live(seed, out))
    return out
