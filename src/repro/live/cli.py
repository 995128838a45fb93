"""``python -m repro.live swarm`` — drive a live swarm under churn and load.

The one subcommand runs the orchestrator directly: N peers, optional
Poisson churn, staged join/leave bursts and lookup load, reported as a
:class:`~repro.live.swarm.SwarmReport`.  The harness metrics of a live
deployment come from ``python -m repro run --transport udp``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig
from repro.workloads.churn import ChurnConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.live",
        description="asyncio deployment plane: PROP peers over loopback UDP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    swarm = sub.add_parser("swarm", help="drive a swarm under churn and load")
    swarm.add_argument("--n", type=int, default=50,
                       help="number of peers (default: 50)")
    swarm.add_argument("--preset", choices=["ts-large", "ts-small", "waxman"],
                       default="ts-small",
                       help="physical topology preset (default: ts-small)")
    swarm.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    swarm.add_argument("--policy", choices=["G", "O"], default="G",
                       help="PROP policy (default: G)")
    swarm.add_argument("--duration", type=float, default=600.0,
                       help="protocol seconds to run (default: 600)")
    swarm.add_argument("--speedup", type=float, default=60.0,
                       help="protocol seconds per wall second (default: 60)")
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
    swarm.add_argument("--trace", type=str, default=None, metavar="PATH",
                       help="write the buffered event trace (spans included) "
                            "as JSONL to PATH; analyze with "
                            "python -m repro.obs spans/critpath")
    return parser


def _cmd_swarm(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live.swarm import ChurnSchedule, Swarm
    from repro.live.transport import udp_loopback_available

    if args.trace and args.monitor:
        raise SystemExit("error: --trace needs the buffered tracer; "
                         "drop --monitor (streaming discards events)")
    try:
        schedule = ChurnSchedule.parse(args.churn_stages) if args.churn_stages else None
        churn = ChurnConfig(rate_per_node=args.churn_rate) if args.churn_rate > 0.0 else None
        if (schedule or churn) and args.spares <= 0:
            raise SystemExit("error: churn needs --spares > 0")
        config = ExperimentConfig(
            seed=args.seed,
            preset=args.preset,
            n_overlay=args.n,
            prop=PROPConfig(policy=args.policy),
            transport="udp",
            duration=args.duration,
            sample_interval=args.duration,
            live_speedup=args.speedup,
            live_lookup_rate=args.rate,
            n_spare=args.spares,
            churn=churn,
            trace=bool(args.trace),
            trace_streaming=args.monitor,
        )
        swarm = Swarm(config, churn_schedule=schedule)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if not udp_loopback_available():
        raise SystemExit("error: UDP loopback is unavailable in this environment")
    print(
        f"swarming {args.n} peers for {args.duration:.0f} protocol s "
        f"at {args.speedup:g}x ...",
        file=sys.stderr,
    )
    report = asyncio.run(swarm.run())
    print(report.summary())
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "swarm":
        return _cmd_swarm(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
