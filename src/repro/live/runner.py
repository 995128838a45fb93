"""Harness-compatible entry point for the live plane.

:func:`run_live_experiment` runs an
:class:`~repro.harness.experiment.ExperimentConfig` with
``transport="udp"`` over a loopback swarm and returns the standard
:class:`~repro.harness.experiment.ExperimentResult` — same sampling
cadence, same metric definitions, same RNG streams for the measurement
workload — so live results drop into every existing comparison,
persistence and reporting path.  ``run_experiment`` delegates here
automatically; calling this directly is equivalent.

What *cannot* match the simulator: message timing.  The engine's RNG
draws happen in wall-clock arrival order, so the exchange *sequence*
diverges run to run while the *trajectory* (cumulative exchanges,
latency improvement) stays statistically aligned — that alignment is
pinned by ``tests/integration/test_live_parity.py``.

Two operational caveats, accepted by design: metric sampling runs on the
event loop thread, so a large ``lookups_per_sample`` stalls the peers
for the sampling instant (protocol timers then fire late, which the
engine treats as any other delay); and datagrams the kernel drops under
load are repaired by protocol timeouts, exactly like injected loss.
"""

from __future__ import annotations

import asyncio
from typing import Any

import numpy as np

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    sample_lookup_latency,
)
from repro.live.swarm import ChurnSchedule, Swarm
from repro.metrics.stretch import stretch as stretch_metric
from repro.obs.monitor import find_monitor

__all__ = ["run_live_experiment"]


def run_live_experiment(
    config: ExperimentConfig,
    *,
    measure_lookups: bool = True,
    consumers: Any = None,
    sample_hook: Any = None,
    churn_schedule: ChurnSchedule | None = None,
) -> ExperimentResult:
    """Run ``config`` on a loopback swarm; mirror of ``run_experiment``.

    Must be called from outside any running event loop (it owns one via
    :func:`asyncio.run`).  ``churn_schedule`` adds staged join/leave
    bursts on top of the config's Poisson churn.
    """
    if config.transport != "udp":
        raise ValueError(
            f"run_live_experiment needs transport='udp', got {config.transport!r}"
        )
    if consumers and not (config.trace or config.trace_streaming):
        raise ValueError("consumers need config.trace or config.trace_streaming")
    return asyncio.run(
        _run(config, measure_lookups, consumers, sample_hook, churn_schedule)
    )


async def _run(
    config: ExperimentConfig,
    measure_lookups: bool,
    consumers: Any,
    sample_hook: Any,
    churn_schedule: ChurnSchedule | None,
) -> ExperimentResult:
    swarm = Swarm(
        config,
        churn_schedule=churn_schedule,
        consumers=list(consumers) if consumers else None,
    )
    await swarm.start()
    world = swarm.world
    engine = swarm.engine
    assert world is not None and engine is not None  # set by start()
    monitor = find_monitor(world.tracer.consumers) if world.tracer is not None else None

    n_samples = int(np.floor(config.duration / config.sample_interval)) + 1
    times = np.arange(n_samples) * config.sample_interval

    link_stretch_series = np.empty(n_samples)
    stretch_series = np.full(n_samples, np.nan)
    lookup_series = np.full(n_samples, np.nan)
    probes = np.zeros(n_samples, dtype=np.int64)
    messages = np.zeros(n_samples, dtype=np.int64)
    exchanges = np.zeros(n_samples, dtype=np.int64)

    def _sample(i: int, t: float) -> None:
        link_stretch_series[i] = stretch_metric(world.overlay)
        if measure_lookups:
            mean_lookup, mean_direct = sample_lookup_latency(world)
            lookup_series[i] = mean_lookup
            stretch_series[i] = (
                mean_lookup / mean_direct if mean_direct > 0 else np.nan
            )
        probes[i] = engine.counters.probes
        messages[i] = engine.counters.total_messages
        exchanges[i] = engine.counters.exchanges
        if monitor is not None and lookup_series[i] == lookup_series[i]:
            monitor.on_sample(float(t), float(lookup_series[i]))
        if sample_hook is not None:
            sample_hook(float(t), monitor.status() if monitor is not None else None)

    try:
        # the t=0 sample precedes any protocol activity: the engines are
        # armed only by launch(), after it completes
        _sample(0, 0.0)
        swarm.launch()
        for i in range(1, n_samples):
            await swarm.run_until(float(times[i]))
            _sample(i, float(times[i]))
    finally:
        report = await swarm.close()

    return ExperimentResult(
        config=config,
        times=times,
        stretch=stretch_series,
        link_stretch=link_stretch_series,
        lookup_latency=lookup_series,
        probes=probes,
        messages=messages,
        exchanges=exchanges,
        final_counters=engine.counters,
        net_stats=report.net_stats,
        net_counters=report.net_counters,
        trace=(
            world.tracer.events
            if world.tracer is not None and not world.tracer.streaming
            else None
        ),
        consumers=(
            list(world.tracer.consumers)
            if world.tracer is not None and world.tracer.consumers
            else None
        ),
    )
