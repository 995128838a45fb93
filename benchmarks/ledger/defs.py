"""The ledger's declared factors: workloads, metrics, bounds.

Everything a reader of ``BENCHMARK.json`` sees is generated from the
tables in this file (``run.py --write-manifest``), and ``test_ledger.py``
pins the two in sync, so a metric or workload is named in exactly one
place.

The program under test only ever receives the :class:`ExperimentConfig`
a workload generates from ``--seed``; it never sees a workload name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig
from repro.workloads.churn import ChurnConfig

#: ``run_seconds`` of BENCHMARK.json: the measuring budget of one run.
#: Timed repetitions continue past ``min_reps`` only while the next one
#: still fits in it.
RUN_SECONDS = 10

_PROP = PROPConfig(nhops=2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, <= 200 chars: which layers it stresses / bypasses
    config: Callable[[int], ExperimentConfig]  # seed -> generated input
    min_reps: int
    #: Protocol/sim seconds of the discarded warm-up repetition (0 = none).
    #: A shortened run of the same config: it pays the lazy imports and
    #: first-call costs so the first timed repetition is not an outlier.
    warmup_duration: float = 360.0

    @property
    def live(self) -> bool:
        return self.config(0).transport == "udp"


def _sim(seed: int, **kw: object) -> ExperimentConfig:
    base: dict[str, object] = dict(
        seed=seed, preset="ts-large", n_overlay=1000, prop=_PROP,
        duration=3600.0, sample_interval=360.0, lookups_per_sample=1000,
    )
    base.update(kw)
    return ExperimentConfig(**base)  # type: ignore[arg-type]


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "fig5a_inline",
        "Fig 5(a): gnutella n=1000 PROP-G inline + flood sampling; core and "
        "metrics/overlay do the work, netsim/net/live almost none, so a "
        "kernel or transport change must not move it",
        lambda seed: _sim(seed),
        min_reps=3,
    ),
    Workload(
        "fig6_chord",
        "Fig 6: chord n=1000 PROP-G identifier swap; same core code over "
        "log-n neighbour sets and per-query chord lookups, so a Var/walk "
        "change tuned on gnutella degrees shows here",
        lambda seed: _sim(seed, overlay_kind="chord"),
        min_reps=3,
    ),
    Workload(
        "msgplane_clean",
        "gnutella n=1000 PROP-G over lossless SimTransport, no lookups; "
        "netsim dispatch, net handlers and delivery dominate, metrics idle: "
        "the kernel/Var-sum/walk-sort/VAR_PROBE workload",
        lambda seed: _sim(seed, transport="sim", latency_scale=1.0,
                          lookups_per_sample=0),
        min_reps=3,
    ),
    Workload(
        "msgplane_faulty",
        "gnutella n=500+100 spares PROP-O, 10% loss, jitter, reorder, "
        "churn; timer cancel/re-arm, PREPARE retries, timeouts, "
        "FaultyTransport, reset_slot: the failure path of the same layers",
        lambda seed: _sim(
            seed, n_overlay=500, n_spare=100,
            prop=PROPConfig(policy="O", nhops=2), transport="sim",
            loss=0.1, net_jitter_ms=20.0, reorder_prob=0.05,
            churn=ChurnConfig(rate_per_node=1 / 3600), lookups_per_sample=0,
        ),
        min_reps=3,
    ),
    Workload(
        "scale_n5000",
        "Fig 5(b) top size: gnutella n=5000 PROP-G inline, samples at t=0 "
        "and t=3600; exact-oracle Dijkstra build and memory dominate, and "
        "with fig5a_inline it fixes the scaling exponent",
        lambda seed: _sim(seed, n_overlay=5000, sample_interval=3600.0),
        min_reps=2,
        warmup_duration=0.0,
    ),
    Workload(
        "live_udp",
        "ts-small gnutella n=100 PROP-G over loopback UDP at 480x, open "
        "loop (timers pace it, ~11% CPU): the only path through live "
        "codec, sockets and the wall-clock scheduler; cost is CPU per probe",
        lambda seed: ExperimentConfig(
            seed=seed, preset="ts-small", n_overlay=100, prop=_PROP,
            transport="udp", live_speedup=480.0, duration=3600.0,
            sample_interval=3600.0, lookups_per_sample=0,
        ),
        min_reps=3,
        warmup_duration=600.0,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"  # or "higher"
    #: End-to-end only: the share of the parent's median by which the
    #: metric may worsen, judged across ten seeds (BENCHMARK.json).  The
    #: timing bounds sit at the contract's ceiling because this class of
    #: host drifts by 10-25 % over minutes (README, "Noise"); the stretch
    #: bound has to cover the world-to-world spread between seeds.
    bound: float | None = None
    #: ``--compare`` judges two same-seed summaries, where simulated
    #: statistics repeat exactly, by the issue's tighter bounds: relative
    #: ``same_seed``, or absolute ``same_seed_abs`` where one is fixed.
    same_seed: float | None = None
    same_seed_abs: float | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", bound=0.25, same_seed=0.10),
    Metric("wall_s_per_sim_hour", "s", "lower", bound=0.25, same_seed=0.10),
    Metric("cpu_us_per_probe", "us", "lower", bound=0.25, same_seed=0.10),
    Metric("peak_rss_mb", "MB", "lower", bound=0.05, same_seed=0.05),
    Metric("ok_share", "ratio", "higher", bound=0.05, same_seed_abs=0.005),
    Metric("link_stretch_ratio", "ratio", "lower", bound=0.25, same_seed_abs=0.005),
)

#: ``--compare`` overrides for the live plane: wall time there is the
#: pacing constant 3600/speedup, and the exchange sequence is not
#: deterministic, so its stretch gets the wider absolute band.
COMPARE_OVERRIDES: dict[tuple[str, str], Metric] = {
    ("live_udp", "wall_s_per_sim_hour"):
        Metric("wall_s_per_sim_hour", "s", "lower", same_seed=0.02),
    ("live_udp", "link_stretch_ratio"):
        Metric("link_stretch_ratio", "ratio", "lower", same_seed_abs=0.05),
}

_KERNEL_CATEGORIES = (
    "timer_probe", "deliver_WALK", "deliver_VAR_PROBE", "deliver_VAR_REPLY",
    "deliver_EXCHANGE_PREPARE", "deliver_EXCHANGE_COMMIT", "deliver_NOTIFY",
)


#: Measured on the run's own workload in the traced repetition (spans,
#: counters, kernel profile).  The full-mode summary keys them by
#: workload; ``<name>.<workload>`` is the issue's spelling of one cell.
PER_LAYER_WORKLOAD: tuple[Metric, ...] = (
    Metric("topology.preset_build_s", "s"),
    Metric("topology.oracle_build_s", "s"),
    Metric("topology.oracle_state_mb", "MB"),
    Metric("overlay.build_s", "s"),
    Metric("harness.setup_self_s", "s"),
    Metric("harness.run_self_s", "s"),
    Metric("netsim.run_until_s", "s"),
    Metric("netsim.events", "count"),
    Metric("netsim.heap_max", "count"),
    Metric("netsim.corpse_ratio", "ratio"),
    Metric("core.probe_cycle_us", "us"),
    Metric("core.useful_share", "ratio", "higher"),
    Metric("net.msgs_per_probe", "count"),
    Metric("net.drop_share", "ratio"),
    Metric("net.retry_share", "ratio"),
    Metric("net.timeout_share", "ratio"),
    *(Metric(f"net.share.{c}", "ratio") for c in _KERNEL_CATEGORIES),
    Metric("net.share.untracked", "ratio"),
    Metric("metrics.sample_s", "s"),
    Metric("metrics.sample_share", "ratio"),
    Metric("fail_share", "ratio"),
    Metric("obs.traced_ratio", "ratio"),
)

#: Fixed-size microbenchmarks, identical in every traced run whatever
#: the workload (their size is in the name).
PER_LAYER_MICRO: tuple[Metric, ...] = (
    Metric("topology.oracle_exact_build_s.n1000", "s"),
    Metric("topology.oracle_landmark_build_s.n1000", "s"),
    Metric("topology.oracle_vivaldi_build_s.n1000", "s"),
    Metric("topology.oracle_to_many_ns", "ns"),
    Metric("topology.oracle_sum_to_ns", "ns"),
    Metric("overlay.gnutella_build_s.n1000", "s"),
    Metric("overlay.chord_build_s.n1000", "s"),
    Metric("overlay.flood_lookup_us.n1000", "us"),
    Metric("overlay.chord_lookup_us.n1000", "us"),
    Metric("netsim.null_event_ns", "ns"),
    Metric("netsim.cancel_rearm_ns", "ns"),
    Metric("core.walk_us", "us"),
    Metric("core.var_g_us.gnutella", "us"),
    Metric("core.var_g_us.chord", "us"),
    Metric("core.select_o_us", "us"),
    Metric("core.exchange_g_us", "us"),
    Metric("core.exchange_o_us", "us"),
    Metric("core.neighborq_cycle_ns", "ns"),
    *(Metric(f"net.{c}_us", "us") for c in _KERNEL_CATEGORIES[1:]),
    Metric("net.timer_probe_us", "us"),
    Metric("net.sim_send_deliver_ns", "ns"),
    Metric("net.faulty_send_deliver_ns", "ns"),
    Metric("live.codec_encode_ns", "ns"),
    Metric("live.codec_decode_ns", "ns"),
    Metric("live.codec_bytes_per_msg", "bytes"),
    Metric("live.udp_send_to_handler_us", "us"),
    Metric("live.cpu_us_per_datagram", "us"),
    Metric("live.datagrams_per_probe", "count"),
    Metric("live.loop_lag_p50_ms", "ms"),
    Metric("live.loop_lag_p95_ms", "ms"),
    Metric("live.lookup_p50_ms", "ms"),
    Metric("live.lookup_p95_ms", "ms"),
    Metric("live.lookup_p99_ms", "ms"),
    Metric("metrics.link_stretch_us.n1000", "us"),
    Metric("metrics.sample_lookup_s.n1000", "s"),
    Metric("metrics.sample_lookup_s.chord1000", "s"),
    Metric("obs.events_overhead_ratio", "ratio"),
    Metric("obs.spans_overhead_ratio", "ratio"),
    Metric("harness.machine_calibration_s", "s"),
)

PER_LAYER = PER_LAYER_WORKLOAD + PER_LAYER_MICRO

#: The issue's names for cells only one workload's traced run can
#: produce; the full-mode summary lists them under ``derived``.
ALIASES: dict[str, tuple[str, str]] = {
    "topology.oracle_exact_build_s.n5000": ("scale_n5000", "topology.oracle_build_s"),
    "topology.oracle_exact_state_mb.n5000": ("scale_n5000", "topology.oracle_state_mb"),
    "obs.kernel_profile_overhead_ratio": ("msgplane_clean", "obs.traced_ratio"),
}


def manifest() -> dict[str, object]:
    """The exact content of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
