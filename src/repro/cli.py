"""Command-line interface.

``python -m repro`` is the one entry point.  ``run`` executes one
deployment — inline, over the simulated message plane, or as a loopback
UDP swarm — and prints the sampled series; ``spans`` / ``critpath``
check a trace it wrote; ``presets`` lists the physical topology
presets.  ``run`` is a thin veneer over
:class:`~repro.harness.experiment.ExperimentConfig` — every flag maps to
one config field, so scripted sweeps can drop to the Python API at any
point.

Examples
--------
::

    python -m repro run --overlay chord --n 300 --policy G
    python -m repro run --overlay gnutella --policy O --m 2 --duration 1800
    python -m repro run --overlay gnutella --ltm --seed 3
    python -m repro run --policy G --spares 50 --churn-rate 0.002 --churn-window 900:1200
    python -m repro run --transport udp --policy G --preset ts-small --n 100 --lookup-rate 2
    python -m repro spans run.jsonl
    python -m repro run --policy G --seeds 0,1,2,3,4 --workers 4
    python -m repro figure fig5b --workers 4
    python -m repro presets
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from repro.baselines.ltm import LTMConfig
from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.reporting import format_series, format_table
from repro.harness.sweep import ProgressRollup, TaskEvent
from repro.topology.factory import ORACLE_BACKENDS
from repro.topology.presets import TS_LARGE, TS_SMALL
from repro.workloads.churn import ChurnConfig

__all__ = ["main", "build_parser"]


def _workers(text: str) -> int:
    """``--workers`` value: a process count, 0 meaning one per core."""
    workers = int(text)
    if workers < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = one per core), got {workers}")
    return workers


def _window(text: str) -> tuple[float, float]:
    """``--churn-window`` value: ``START:STOP`` in protocol seconds."""
    try:
        start, stop = (float(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:STOP, got {text!r}") from None
    return start, stop


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PROP peer-exchange overlay optimization (ICPP 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one deployment (simulated or loopback UDP)")
    run.add_argument("--overlay", choices=["gnutella", "chord", "can", "pastry", "kademlia"],
                     default="gnutella", help="overlay family (default: gnutella)")
    run.add_argument("--preset", choices=["ts-large", "ts-small", "waxman"],
                     default="ts-large",
                     help="physical topology preset (default: ts-large)")
    run.add_argument("--n", type=int, default=1000, help="overlay size (default: 1000)")
    run.add_argument("--oracle", choices=list(ORACLE_BACKENDS), default="exact",
                     help="latency oracle backend: exact O(n^2) matrix, vivaldi "
                          "O(n*dim) coordinates, or landmark O(n*m) triangulation "
                          "(default: exact)")
    run.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    run.add_argument("--duration", type=float, default=3600.0,
                     help="simulated seconds (default: 3600)")
    run.add_argument("--sample-interval", type=float, default=360.0,
                     help="metric sampling period in seconds (default: 360)")
    run.add_argument("--lookups", type=int, default=1000,
                     help="lookups measured per sample (default: 1000)")

    proto = run.add_mutually_exclusive_group()
    proto.add_argument("--policy", choices=["G", "O"],
                       help="deploy PROP with this policy")
    proto.add_argument("--ltm", action="store_true", help="deploy the LTM baseline")

    run.add_argument("--nhops", type=int, default=2, help="probe walk TTL (default: 2)")
    run.add_argument("--m", type=int, default=None,
                     help="PROP-O trade size (default: overlay min degree)")
    run.add_argument("--random-probe", action="store_true",
                     help="probe a uniform random peer instead of walking")
    run.add_argument("--heterogeneous", action="store_true",
                     help="bimodal processing delays (1 ms / 100 ms, 50%% fast)")
    run.add_argument("--flood-ttl", type=int, default=None,
                     help="Gnutella flood scope (default: unbounded)")
    run.add_argument("--pns", action="store_true",
                     help="Chord: proximity neighbor selection fingers")
    run.add_argument("--pis-landmarks", type=int, default=None,
                     help="Chord: PIS identifier assignment with this many landmarks")

    net = run.add_argument_group(
        "message transport",
        "run PROP as request/response messages instead of inline cycles",
    )
    net.add_argument("--transport", choices=["inline", "sim", "udp"], default="inline",
                     help="protocol plane: 'inline' atomic cycles, 'sim' "
                          "message-level over the event simulator, or 'udp' "
                          "real messages over a loopback swarm "
                          "(default: inline)")
    net.add_argument("--speedup", type=float, default=60.0,
                     help="udp only: protocol seconds per wall second "
                          "(default: 60)")
    net.add_argument("--lookup-rate", type=float, default=0.0, metavar="R",
                     help="udp only: open-loop lookups per protocol second "
                          "while the swarm runs (default: 0)")
    net.add_argument("--loss", type=float, default=0.0, metavar="P",
                     help="per-message drop probability in [0, 1) "
                          "(requires --transport sim)")
    net.add_argument("--partition", action="append", default=None,
                     metavar="A:B[@T0-T1]",
                     help="partition the overlay into two halves, optionally "
                          "only between T0 and T1 seconds; repeatable "
                          "(requires --transport sim)")

    churn = run.add_argument_group(
        "churn", "Poisson slot turnover, the same model on every --transport")
    churn.add_argument("--spares", type=int, default=0,
                       help="spare hosts that replace departing peers (default: 0)")
    churn.add_argument("--churn-rate", type=float, default=0.0, metavar="R",
                       help="turnover events per peer per protocol second "
                            "(default: 0; needs --spares)")
    churn.add_argument("--churn-window", type=_window, default=None,
                       metavar="START:STOP",
                       help="churn only between these protocol seconds, "
                            "e.g. 900:1200 for a burst (default: the whole run)")

    run.add_argument("--seeds", type=str, default=None, metavar="S0,S1,...",
                     help="run one replica per comma-separated seed and "
                          "report the aggregate (overrides --seed)")
    run.add_argument("--workers", type=_workers, default=1,
                     help="worker processes for multi-seed runs "
                          "(default: 1 = in-process; 0 = one per core)")

    run.add_argument("--save", type=str, default=None, metavar="PATH",
                     help="write the run record (config, series, metrics, "
                          "phases, trace event counts, profile) to this JSON "
                          "file; with --seeds, PATH is a directory and each "
                          "seed's record is PATH/seed<S>.json")

    obs = run.add_argument_group("observability")
    obs.add_argument("--trace", type=str, default=None, metavar="PATH",
                     help="record structured protocol/message events to this "
                          "JSONL file (check with 'python -m repro spans')")
    obs.add_argument("--profile", action="store_true",
                     help="print where the wall-clock time went: world build, "
                          "timer and delivery event categories, metric "
                          "sampling (every --transport); --save keeps it "
                          "in the run record")
    obs.add_argument("--monitor", action="store_true",
                     help="live stderr progress line (phase, sim-time, ETA, "
                          "latency, exchange tallies); without --trace "
                          "this streams events to consumers and discards them, "
                          "bounding memory for long runs")

    for name, what, shown in (
        ("spans", "reassemble causal span trees and 2PC exchanges from a trace",
         "trees"),
        ("critpath", "critical-path decomposition per probe cycle", "paths"),
    ):
        p_trace = sub.add_parser(name, help=what)
        p_trace.add_argument("trace", help="JSONL trace file (from run --trace)")
        p_trace.add_argument("--limit", type=int, default=10,
                             help=f"max {shown} to print (default 10; -1 for all)")
        p_trace.add_argument("--json-out", default=None, metavar="PATH",
                             help="also write the JSON analysis summary to PATH")

    sub.add_parser("presets", help="list the physical topology presets")

    show = sub.add_parser("show", help="render a run record as markdown")
    show.add_argument("path", help="run record written by 'run --save'")

    compare = sub.add_parser("compare", help="list what differs between two run records")
    compare.add_argument("path_a", help="baseline run record")
    compare.add_argument("path_b", help="candidate run record")

    from repro.harness.figures import FIGURE_IDS

    figure = sub.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("figure_id", choices=list(FIGURE_IDS),
                        help="which figure to regenerate")
    figure.add_argument("--scale", choices=["paper", "quick"], default="quick",
                        help="paper scale (n=1000, slow) or quick sanity scale (default)")
    figure.add_argument("--workers", type=_workers, default=1,
                        help="worker processes for the sweep "
                             "(default: 1 = in-process; 0 = one per core)")
    figure.add_argument("--monitor", action="store_true",
                        help="live stderr rollup line (done/total, ETA) as "
                             "the sweep's runs complete")

    report = sub.add_parser("report", help="tabulate the run records in a directory")
    report.add_argument("directory", help="directory of run records")
    report.add_argument("--metric", default="lookup_latency",
                        choices=["lookup_latency", "stretch", "link_stretch"])
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    prop = None
    ltm = None
    if args.policy is not None:
        prop = PROPConfig(
            policy=args.policy,
            nhops=args.nhops,
            m=args.m,
            random_probe=args.random_probe,
        )
    elif args.ltm:
        ltm = LTMConfig()
    transport = None if args.transport == "inline" else args.transport
    if transport != "sim" and (args.loss or args.partition):
        raise SystemExit("error: --loss/--partition require --transport sim")
    if transport is not None and prop is None:
        raise SystemExit(
            f"error: --transport {transport} requires a PROP policy (--policy)"
        )
    churn = None
    if args.churn_rate:
        start, stop = args.churn_window or (0.0, float("inf"))
        churn = ChurnConfig(args.churn_rate, start, stop)
    elif args.churn_window is not None:
        raise SystemExit("error: --churn-window needs --churn-rate")
    return ExperimentConfig(
        seed=args.seed,
        preset=args.preset,
        overlay_kind=args.overlay,
        n_overlay=args.n,
        oracle=args.oracle,
        prop=prop,
        ltm=ltm,
        heterogeneous=args.heterogeneous,
        flood_ttl=args.flood_ttl,
        pns=args.pns,
        pis_landmarks=args.pis_landmarks,
        duration=args.duration,
        sample_interval=args.sample_interval,
        lookups_per_sample=args.lookups,
        transport=transport,
        live_speedup=args.speedup,
        live_lookup_rate=args.lookup_rate,
        n_spare=args.spares,
        churn=churn,
        loss=args.loss,
        partitions=tuple(args.partition or ()),
        trace=args.trace is not None,
        # --monitor alone needs the event stream but not the raw trace:
        # stream to the monitor and discard, keeping memory bounded
        trace_streaming=getattr(args, "monitor", False) and args.trace is None,
        kernel_profile=args.profile,
    )


def _print_progress(event: TaskEvent) -> None:
    """One stderr line per run as it starts."""
    if event.status == "start":
        print(f"  {event.label}", file=sys.stderr)


def _monitored_progress(total: int, workers: int):
    """Progress callback folding task events into a live rollup line."""
    rollup = ProgressRollup(total)

    def render(event: TaskEvent) -> None:
        _print_progress(event)
        if event.status == "done":
            print(f"  {rollup.render(workers=workers)}", file=sys.stderr)

    return rollup.chain(render)


def _parse_seeds(spec: str) -> list[int]:
    try:
        seeds = [int(s) for s in spec.split(",") if s.strip() != ""]
    except ValueError:
        raise SystemExit(f"error: --seeds must be comma-separated integers, got {spec!r}")
    if not seeds:
        raise SystemExit("error: --seeds must name at least one seed")
    return seeds


def _cmd_run_replicated(args: argparse.Namespace, config: ExperimentConfig,
                        label: str, seeds: list[int]) -> int:
    from repro.harness.replicate import replicate

    if args.trace:
        raise SystemExit("error: --trace records a single run; drop --seeds")
    if config.kernel_profile:
        raise SystemExit("error: --profile records a single run; drop --seeds")
    print(
        f"replicating {config.overlay_kind} n={config.n_overlay} on {config.preset} "
        f"with optimizer={label} over {len(seeds)} seeds "
        f"(workers={args.workers}) ...",
        file=sys.stderr,
    )
    progress = (
        _monitored_progress(len(seeds), args.workers)
        if args.monitor
        else _print_progress
    )
    summary = replicate(config, seeds, workers=args.workers, progress=progress)
    print(
        format_series(
            f"{config.overlay_kind} / {label}  mean over seeds {seeds}",
            summary.times,
            {
                "stretch (mean)": summary.stretch.mean,
                "lookup latency (ms, mean)": summary.lookup_latency.mean,
                "lookup latency (ms, min)": summary.lookup_latency.low,
                "lookup latency (ms, max)": summary.lookup_latency.high,
            },
        )
    )
    print(f"\nimprovement ratio (final/initial lookup latency): "
          f"{summary.mean_improvement():.3f} +/- {summary.std_improvement():.3f} "
          f"over {summary.n_replicas} seeds")
    if args.save:
        from repro.harness.persistence import save_record

        for seed, result in zip(summary.seeds, summary.results):
            save_record(result, Path(args.save) / f"seed{seed}.json")
        print(f"saved {summary.n_replicas} run records to {args.save}", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    label = "none"
    if config.prop is not None:
        label = f"PROP-{config.prop.policy}"
    elif config.ltm is not None:
        label = "LTM"
    if config.transport == "udp":
        from repro.live.transport import udp_loopback_available

        if not udp_loopback_available():
            raise SystemExit("error: UDP loopback is unavailable in this environment")
    if args.seeds is not None:
        return _cmd_run_replicated(args, config, label, _parse_seeds(args.seeds))
    print(
        f"running {config.overlay_kind} n={config.n_overlay} on {config.preset} "
        f"with optimizer={label} for {config.duration:.0f}s ...",
        file=sys.stderr,
    )
    if args.workers != 1:
        # Route through the pool even for a single deployment so
        # `--workers` smoke-tests the parallel path end to end.  A
        # monitored worker run streams to consumers inside the worker
        # (reconstructed from the config) and reports them back whole;
        # the live per-sample line is a serial-path feature.
        from repro.harness.sweep import run_sweep

        progress = _monitored_progress(1, args.workers) if args.monitor else None
        result = run_sweep(
            {label: config}, workers=args.workers, progress=progress
        )[label]
    else:
        consumers = None
        sample_hook = None
        if args.monitor:
            from repro.harness.experiment import monitor_consumers
            from repro.obs.monitor import format_status
            from repro.obs.prof import wall_monotonic

            if not config.trace_streaming:
                # buffered tracing active (--trace): attach the
                # monitor alongside the raw event buffer
                consumers = [monitor_consumers(config)]
            wall_start = wall_monotonic()

            def sample_hook(t: float, status) -> None:
                eta = None
                if t > 0:
                    # wall-clock ETA, CLI-side only; read through the
                    # profiling plane's sanctioned helper (reprolint D1)
                    elapsed = wall_monotonic() - wall_start
                    eta = elapsed * (config.duration - t) / t
                if status is not None:
                    print(format_status(status, eta_seconds=eta), file=sys.stderr)

        result = run_experiment(config, consumers=consumers, sample_hook=sample_hook)
    if args.monitor:
        from repro.obs.monitor import find_monitor, format_status

        monitor = find_monitor(result.consumers)
        if monitor is not None:
            print(format_status(monitor.status()), file=sys.stderr)
    print(
        format_series(
            f"{config.overlay_kind} / {label}",
            result.times,
            {
                "stretch": result.stretch,
                "lookup latency (ms)": result.lookup_latency,
                "link stretch": result.link_stretch,
            },
        )
    )
    if result.final_counters is not None:
        print(f"\nprobes/rounds: {result.probes[-1]}  "
              f"exchanges/ops: {result.exchanges[-1]}")
    metrics = result.metrics()
    if result.net_stats is not None or result.net_counters is not None:
        # one merged net-plane table sourced from the one metrics
        # snapshot — wire telemetry (transport.*) and protocol-visible
        # fault outcomes (net.*) each appear exactly once
        from repro.obs.registry import NET_TABLE_COLUMNS, net_summary_rows

        rows = net_summary_rows(metrics)
        if rows:
            print()
            print(format_table(list(NET_TABLE_COLUMNS), rows))
    print(f"lookup latency: {result.initial_lookup_latency:.1f} ms -> "
          f"{result.final_lookup_latency:.1f} ms")
    if "live.lookups" in metrics:
        print(f"lookup load: {metrics['live.lookups']} lookups, mean "
              f"{metrics.get('live.mean_lookup_ms', math.nan):.1f} ms")
    if result.kernel_profile is not None:
        from repro.obs.prof import KernelProfile

        print()
        print(KernelProfile.from_dict(result.kernel_profile).table())
    if args.trace:
        from repro.obs.trace import write_events_jsonl

        events = result.trace or []
        if not events:
            print(f"warning: run produced no trace events; {args.trace} "
                  "will be empty", file=sys.stderr)
        trace_path = write_events_jsonl(events, args.trace)
        print(f"wrote {len(events)} events to {trace_path}", file=sys.stderr)
    if args.save:
        from repro.harness.persistence import save_record

        path = save_record(result, args.save)
        print(f"saved run record to {path}", file=sys.stderr)
    return 0


def _load_records(command: str, *paths: str) -> list | None:
    """The run records at ``paths``, or None after one stderr line (exit 2)."""
    from repro.harness.persistence import load_record

    try:
        return [load_record(path) for path in paths]
    except (OSError, ValueError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.harness.persistence import render_record

    records = _load_records("show", args.path)
    if records is None:
        return 2
    print(render_record(records[0], label=args.path), end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness.persistence import compare_records

    records = _load_records("compare", args.path_a, args.path_b)
    if records is None:
        return 2
    print(f"A = {args.path_a}\nB = {args.path_b}\n")
    print(compare_records(*records))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness.figures import figure_configs, figure_description
    from repro.harness.sweep import run_sweep

    configs = figure_configs(args.figure_id, scale=args.scale)
    print(
        f"regenerating {args.figure_id} ({figure_description(args.figure_id)}) "
        f"at {args.scale} scale: {len(configs)} runs (workers={args.workers}) ...",
        file=sys.stderr,
    )
    progress = (
        _monitored_progress(len(configs), args.workers)
        if args.monitor
        else _print_progress
    )
    results = run_sweep(configs, workers=args.workers, progress=progress)
    times = next(iter(results.values())).times
    metric = "stretch" if args.figure_id.startswith("fig6") else "lookup_latency"
    print(
        format_series(
            f"{args.figure_id}  {figure_description(args.figure_id)}",
            times,
            {label: getattr(r, metric) for label, r in results.items()},
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.persistence import tabulate_records

    try:
        print(tabulate_records(args.directory, metric=args.metric))
    except ValueError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``spans`` / ``critpath``: 0 clean, 1 violation, 2 unreadable trace."""
    from repro.obs.events import load_trace
    from repro.obs.spans import (
        assemble_spans,
        dump_analysis,
        render_critical_paths,
        render_span_trees,
    )

    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    analysis = assemble_spans(events)
    render = render_span_trees if args.command == "spans" else render_critical_paths
    try:
        print(render(analysis, limit=None if args.limit < 0 else args.limit))
    except BrokenPipeError:  # e.g. `... spans t.jsonl | head`
        sys.stderr.close()  # suppress the interpreter's epipe warning
        return 0
    if args.json_out is not None:
        dump_analysis(analysis, args.json_out)
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0 if analysis.clean else 1


def _cmd_presets(_: argparse.Namespace) -> int:
    rows = []
    for name, p in (("ts-large", TS_LARGE), ("ts-small", TS_SMALL)):
        rows.append(
            [
                name,
                p.transit_domains,
                p.transit_nodes_per_domain,
                p.stub_domains_per_transit,
                p.stub_nodes_per_domain,
                p.n_hosts,
            ]
        )
    print(
        format_table(
            ["preset", "transit domains", "transit/domain", "stubs/transit",
             "hosts/stub", "total hosts"],
            rows,
        )
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "presets":
        return _cmd_presets(args)
    if args.command == "show":
        return _cmd_show(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command in ("spans", "critpath"):
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
