"""``python -m repro.live`` — run, load-test, or bench the live plane.

Three subcommands:

* ``run`` — one live deployment through the standard harness metrics
  (the ``--transport udp`` path of ``python -m repro run``, with the
  live-only knobs surfaced);
* ``swarm`` — the orchestrator directly: N peers, optional Poisson
  churn, staged join/leave bursts and lookup load, reported as a
  :class:`~repro.live.swarm.SwarmReport`;
* ``bench`` — a short fixed-shape throughput run printing one JSON
  record.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig
from repro.workloads.churn import ChurnConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.swarm import SwarmReport

__all__ = ["main", "build_parser"]


def _add_common(p: argparse.ArgumentParser, *, n_default: int) -> None:
    p.add_argument("--n", type=int, default=n_default,
                   help=f"number of peers (default: {n_default})")
    p.add_argument("--preset", choices=["ts-large", "ts-small", "waxman"],
                   default="ts-small",
                   help="physical topology preset (default: ts-small)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    p.add_argument("--policy", choices=["G", "O"], default="G",
                   help="PROP policy (default: G)")
    p.add_argument("--duration", type=float, default=600.0,
                   help="protocol seconds to run (default: 600)")
    p.add_argument("--speedup", type=float, default=60.0,
                   help="protocol seconds per wall second (default: 60)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.live",
        description="asyncio deployment plane: PROP peers over loopback UDP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one live deployment with harness metrics")
    _add_common(run, n_default=50)
    run.add_argument("--sample-interval", type=float, default=120.0,
                     help="metric sampling period in protocol seconds (default: 120)")
    run.add_argument("--lookups", type=int, default=200,
                     help="lookups measured per sample (default: 200)")
    run.add_argument("--rate", type=float, default=0.0,
                     help="traffic-generator lookups per protocol second "
                          "(default: 0 = off)")

    swarm = sub.add_parser("swarm", help="drive a swarm under churn and load")
    _add_common(swarm, n_default=50)
    swarm.add_argument("--rate", type=float, default=1.0,
                       help="lookups per protocol second (default: 1)")
    swarm.add_argument("--spares", type=int, default=0,
                       help="spare hosts for churn replacement (default: 0)")
    swarm.add_argument("--churn-rate", type=float, default=0.0,
                       help="Poisson churn events per node per protocol second "
                            "(default: 0; needs --spares)")
    swarm.add_argument("--churn-stages", type=str, default=None, metavar="T:K,...",
                       help="staged bursts, e.g. '120:5,300:10' replaces 5 "
                            "peers at t=120 and 10 at t=300 (needs --spares)")
    swarm.add_argument("--monitor", action="store_true",
                       help="stream events to the convergence monitor and "
                            "print its final status")
    swarm.add_argument("--telemetry", type=str, default=None, metavar="PATH",
                       help="append periodic TelemetrySnapshot JSONL records "
                            "(registry metrics, open-span gauges, per-peer "
                            "wire bytes) to PATH")
    swarm.add_argument("--telemetry-interval", type=float, default=60.0,
                       metavar="SECONDS",
                       help="protocol seconds between telemetry snapshots "
                            "(default: 60)")
    swarm.add_argument("--trace", type=str, default=None, metavar="PATH",
                       help="write the buffered event trace (spans included) "
                            "as JSONL to PATH; analyze with "
                            "python -m repro.obs spans/critpath")

    bench = sub.add_parser("bench", help="fixed-shape throughput run, JSON output")
    _add_common(bench, n_default=50)

    return parser


def _config(args: argparse.Namespace, **extra: Any) -> ExperimentConfig:
    return ExperimentConfig(
        seed=args.seed,
        preset=args.preset,
        n_overlay=args.n,
        prop=PROPConfig(policy=args.policy),
        transport="udp",
        duration=args.duration,
        sample_interval=min(args.duration, getattr(args, "sample_interval", args.duration)),
        live_speedup=args.speedup,
        **extra,
    )


def swarm_metrics(report: "SwarmReport") -> dict[str, float]:
    """The bench-facing metric dict for one finished swarm run."""
    return {
        "msgs_per_s": round(report.msgs_per_wall_s, 2),
        "exchanges_per_s": round(report.exchanges_per_wall_s, 4),
        "datagrams_sent": float(report.datagrams_sent),
        "exchanges": float(report.exchanges),
        "wall_seconds": round(report.wall_seconds, 3),
    }


def _require_loopback() -> None:
    from repro.live.transport import udp_loopback_available

    if not udp_loopback_available():
        raise SystemExit("error: UDP loopback is unavailable in this environment")


def _cmd_run(args: argparse.Namespace) -> int:
    _require_loopback()
    from repro.harness.reporting import format_series
    from repro.live.runner import run_live_experiment

    config = _config(
        args,
        lookups_per_sample=args.lookups,
        live_lookup_rate=args.rate,
    )
    print(
        f"running live PROP-{args.policy} swarm: {args.n} peers on {args.preset}, "
        f"{args.duration:.0f} protocol s at {args.speedup:g}x "
        f"(~{args.duration / args.speedup:.1f} wall s) ...",
        file=sys.stderr,
    )
    result = run_live_experiment(config)
    print(
        format_series(
            f"live / PROP-{args.policy}",
            result.times,
            {
                "stretch": result.stretch,
                "lookup latency (ms)": result.lookup_latency,
                "link stretch": result.link_stretch,
            },
        )
    )
    print(f"\nprobes: {result.probes[-1]}  exchanges: {result.exchanges[-1]}")
    print(f"lookup latency: {result.initial_lookup_latency:.1f} ms -> "
          f"{result.final_lookup_latency:.1f} ms")
    return 0


def _cmd_swarm(args: argparse.Namespace) -> int:
    _require_loopback()
    import asyncio

    from repro.live.swarm import ChurnSchedule, Swarm

    schedule = None
    if args.churn_stages:
        schedule = ChurnSchedule.parse(args.churn_stages)
    churn = None
    if args.churn_rate > 0.0:
        churn = ChurnConfig(rate_per_node=args.churn_rate)
    if (schedule or churn) and args.spares <= 0:
        raise SystemExit("error: churn needs --spares > 0")
    if args.trace and args.monitor:
        raise SystemExit("error: --trace needs the buffered tracer; "
                         "drop --monitor (streaming discards events)")
    config = _config(
        args,
        live_lookup_rate=args.rate,
        n_spare=args.spares,
        churn=churn,
        trace=bool(args.trace),
        trace_streaming=args.monitor,
    )
    print(
        f"swarming {args.n} peers for {args.duration:.0f} protocol s "
        f"at {args.speedup:g}x ...",
        file=sys.stderr,
    )
    swarm = Swarm(
        config,
        churn_schedule=schedule,
        telemetry=args.telemetry,
        telemetry_interval=args.telemetry_interval,
    )
    report = asyncio.run(swarm.run())
    print(report.summary())
    if args.telemetry:
        print(f"telemetry: {swarm.telemetry_written} snapshots -> "
              f"{args.telemetry}", file=sys.stderr)
    if args.trace and swarm.tracer is not None:
        from repro.obs.trace import write_events_jsonl

        write_events_jsonl(swarm.tracer.events, args.trace)
        print(f"trace: {len(swarm.tracer.events)} events -> {args.trace}",
              file=sys.stderr)
    if args.monitor and swarm.tracer is not None:
        from repro.obs.monitor import find_monitor, format_status

        monitor = find_monitor(swarm.tracer.consumers)
        if monitor is not None:
            print(format_status(monitor.status()), file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    _require_loopback()
    import asyncio

    from repro.live.swarm import Swarm

    config = _config(args, live_lookup_rate=0.0)
    report = asyncio.run(Swarm(config).run())
    record = {
        "n_peers": report.n_peers,
        "duration": report.duration,
        "speedup": report.speedup,
        **swarm_metrics(report),
    }
    print(json.dumps(record, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "swarm":
        return _cmd_swarm(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
