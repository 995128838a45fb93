"""One timed repetition of a workload, its correctness gate, and the
aggregation of repetitions into the end-to-end metrics.

A repetition is: build the armed world from the generated
``ExperimentConfig`` (``build_world`` or ``Swarm.start`` — ``setup_s``),
then the **run region** (simulate + in-run sampling, or launch→close on
the live plane).  Every layer is driven through its public functions;
the same code runs untraced (disabled :class:`SpanRecorder`, no
profiler) for the end-to-end numbers and traced for the per-layer ones.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import statistics
import time
from typing import Any

import numpy as np

from repro.harness.experiment import (
    ExperimentConfig,
    build_world,
    sample_lookup_latency,
)
from repro.live.swarm import Swarm
from repro.metrics.stretch import stretch
from repro.obs.prof import KernelProfiler
from repro.overlay.base import Overlay

from spans import SpanRecorder, interposed

Row = dict[str, Any]


def _counters_row(engine: Any, transport_stats: Any) -> Row:
    c = engine.counters
    nc = getattr(engine, "net_counters", None)
    row: Row = {
        "probes": c.probes,
        "exchanges": c.exchanges,
        "messages": c.total_messages,
        "net_counters": dataclasses.asdict(nc) if nc is not None else {},
        "sent": transport_stats.total_sent if transport_stats else 0,
        "delivered": transport_stats.total_delivered if transport_stats else 0,
        "dropped": transport_stats.total_dropped if transport_stats else 0,
    }
    # probe cycles that ended in a timeout or a stale abort; a Var <= 0
    # cycle is a protocol decision, not a failure
    row["fails"] = sum(
        row["net_counters"].get(k, 0)
        for k in ("walk_timeouts", "vote_timeouts", "prepared_timeouts", "stale_aborts")
    )
    return row


def gate(row: Row, overlay: Overlay, degrees_before: np.ndarray, policy: str) -> list[str]:
    """The per-repetition correctness gate; returns the violations."""
    problems = []
    if not overlay.is_connected():
        problems.append("overlay disconnected (Theorem 1)")
    after = overlay.degree_sequence()
    if policy == "O":
        if not np.array_equal(after, degrees_before):
            problems.append("PROP-O changed a slot's degree")
    elif not np.array_equal(np.sort(after), np.sort(degrees_before)):
        problems.append("PROP-G changed the degree multiset")
    if not row["link_stretch_final"] < row["link_stretch_initial"]:
        problems.append("link stretch did not improve")
    if row["live"]:
        if row["codec_errors"]:
            problems.append(f"{row['codec_errors']} codec errors")
        if row["delivered"] < 0.99 * row["sent"]:
            problems.append(f"only {row['delivered']}/{row['sent']} datagrams delivered")
    return problems


def sim_digest(row: Row) -> str:
    """Hash of every simulated statistic of a repetition: a speed-up
    must leave it identical, so two commits compare exactly."""
    doc = [
        row["probes"], row["exchanges"], row["messages"], row["events"],
        float(row["link_stretch_final"]).hex(),
        sorted(row["net_counters"].items()),
        row["sent"], row["delivered"], row["dropped"],
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def run_sim_rep(config: ExperimentConfig, rec: SpanRecorder, *, profile: bool = False) -> Row:
    with interposed(rec):
        started = time.perf_counter()
        with rec.span("harness.setup"):
            world = build_world(config)
        setup_s = time.perf_counter() - started
        overlay = world.overlay
        degrees = overlay.degree_sequence().copy()
        kprof = None
        if profile:
            kprof = KernelProfiler()
            world.sim.profiler = kprof
        n_samples = int(config.duration // config.sample_interval) + 1
        link = []
        cpu_run_until = 0.0
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with rec.span("harness.run"):
            for i in range(n_samples):
                c = time.process_time()
                with rec.span("netsim.run_until"):
                    world.sim.run_until(i * config.sample_interval)
                cpu_run_until += time.process_time() - c
                with rec.span("metrics.stretch"):
                    link.append(stretch(overlay))
                if config.lookups_per_sample:
                    with rec.span("metrics.sample_lookup"):
                        sample_lookup_latency(world)
        run_wall = time.perf_counter() - t0
        run_cpu = time.process_time() - cpu0
    assert world.engine is not None and config.prop is not None
    row: Row = {
        "live": False,
        "setup_s": setup_s, "run_wall_s": run_wall, "run_cpu_s": run_cpu,
        "run_until_cpu_s": cpu_run_until, "duration": config.duration,
        "events": world.sim.events_executed,
        "link_stretch_initial": link[0], "link_stretch_final": link[-1],
        "oracle_state_mb": world.oracle.state_nbytes() / 1e6,
        **_counters_row(world.engine, world.transport.stats if world.transport else None),
    }
    row["sim_digest"] = sim_digest(row)
    if kprof is not None:
        row["kernel_profile"] = kprof.finish(sim_seconds=config.duration).to_dict()
        # one sample per run_until window
        row["heap_max"] = max(s["heap"] for s in kprof.heap_samples)
        row["corpse_ratio"] = max(s["corpse_ratio"] for s in kprof.heap_samples)
    row["problems"] = gate(row, overlay, degrees, config.prop.policy)
    return row


async def _live_rep(config: ExperimentConfig, rec: SpanRecorder) -> Row:
    with interposed(rec):
        swarm = Swarm(config)
        started = time.perf_counter()
        with rec.span("harness.setup"):
            await swarm.start()
        setup_s = time.perf_counter() - started
        assert swarm.world is not None and swarm.scheduler is not None
        overlay = swarm.world.overlay
        degrees = overlay.degree_sequence().copy()
        report = None
        try:
            with rec.span("metrics.stretch"):
                initial = stretch(overlay)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            with rec.span("harness.run"):
                with rec.span("live.launch"):
                    swarm.launch()
                with rec.span("live.run_until"):
                    await swarm.run_until(config.duration)
                with rec.span("live.close"):
                    report = await swarm.close()
            run_wall = time.perf_counter() - t0
            run_cpu = time.process_time() - cpu0
        finally:
            if report is None:  # a failing rep must still release its sockets
                await swarm.close()
        with rec.span("metrics.stretch"):
            final = stretch(overlay)
    assert swarm.engine is not None and swarm.transport is not None
    row: Row = {
        "live": True,
        "setup_s": setup_s, "run_wall_s": run_wall, "run_cpu_s": run_cpu,
        "run_until_cpu_s": run_cpu, "duration": config.duration,
        "events": swarm.scheduler.events_scheduled,
        "link_stretch_initial": initial, "link_stretch_final": final,
        "oracle_state_mb": swarm.world.oracle.state_nbytes() / 1e6,
        "codec_errors": report.codec_errors,
        **_counters_row(swarm.engine, report.net_stats),
    }
    # on real sockets a codec error or an undelivered datagram is a
    # failed operation too
    row["fails"] += row["codec_errors"] + (row["sent"] - row["delivered"])
    row["problems"] = gate(row, overlay, degrees, "G")
    return row


def run_live_rep(config: ExperimentConfig, rec: SpanRecorder) -> Row:
    return asyncio.run(_live_rep(config, rec))


def run_rep(config: ExperimentConfig, rec: SpanRecorder, *, profile: bool = False) -> Row:
    """One repetition; an exception fails the whole repetition."""
    # the previous repetition's world is cyclic garbage; without this its
    # memory is still held while the next one is built, and peak RSS
    # measures collector timing instead of the program
    gc.collect()
    try:
        if config.transport == "udp":
            return run_live_rep(config, rec)
        return run_sim_rep(config, rec, profile=profile)
    except Exception as exc:  # the run must report, not die, on a failing rep
        return {"problems": [f"exception: {type(exc).__name__}: {exc}"], "probes": 0}


def failed(row: Row) -> bool:
    return bool(row["problems"])


def stats(values: list[float], center: str = "median") -> dict[str, Any]:
    """Every summary of one metric's per-repetition values; ``value`` is
    the headline the run reports, chosen by ``center``."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else (values[0],) * 3)
    cell = {
        "median": median, "mean": statistics.fmean(values),
        "min": min(values), "max": max(values), "q1": q1, "q3": q3, "n": len(values),
    }
    return {"value": cell[center], "center": center, **cell}


def end_to_end(rows: list[Row], peak_rss_mb: float) -> dict[str, dict[str, Any]]:
    """Aggregate timed repetitions into the end-to-end metrics.

    The three timings report the **fastest** completed repetition: the
    workloads are deterministic, so repetitions differ only by
    interference from the host, which can only add time (README,
    "Noise"); median and quartiles are kept beside it.  A failed
    repetition counts all of its probe cycles as failed, so ``ok_share``
    (the mean over repetitions) drops by its whole share.
    """
    good = [r for r in rows if "run_wall_s" in r]
    if not good:
        raise RuntimeError("no repetition completed: " + "; ".join(
            p for r in rows for p in r["problems"]))
    return {
        "setup_s": stats([r["setup_s"] for r in good], "min"),
        "wall_s_per_sim_hour": stats(
            [r["run_wall_s"] * 3600.0 / r["duration"] for r in good], "min"),
        "cpu_us_per_probe": stats(
            [r["run_cpu_s"] / r["probes"] * 1e6 for r in good], "min"),
        "peak_rss_mb": stats([peak_rss_mb]),
        "ok_share": stats(
            [0.0 if failed(r) else 1.0 - r["fails"] / r["probes"] for r in rows], "mean"),
        "link_stretch_ratio": stats(
            [r["link_stretch_final"] / r["link_stretch_initial"] for r in good]),
    }
