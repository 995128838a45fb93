"""The benchmark ledger's one command.

Full ledger (one fresh child interpreter per workload, one at a time)::

    python benchmarks/ledger/run.py [--seed 0] [--workload NAME] [--traced]

prints every metric by name with its unit and writes
``results/runs.jsonl`` (one raw row per workload × repetition),
``results/summary.json`` (the aggregated table) and, with ``--traced``,
``results/trace.<workload>.json`` (the benchmark-owned spans).

One measured run — the form ``BENCHMARK.json`` declares and the form
each child takes::

    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

measures in-process and prints one JSON object as its last stdout line:
the end-to-end metrics (``--trace 0``, tracing/profiling/events all
off) or the per-layer metrics (``--trace 1``).

Two summaries compare with ``--compare A.json B.json`` (exit 1 on any
``regressed`` row).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, and refuse to
    measure any other installation of the program.

    The ledger's own modules import the program, so they are imported
    inside the functions below, after this has run."""
    src = REPO / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"ledger: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"ledger: 'repro' resolved to {repro.__file__}, not {src}")


def _say(text: str = "") -> None:
    """Human-readable progress and tables go to stderr; stdout carries
    the result line."""
    print(text, file=sys.stderr, flush=True)


# -- one measured run (child / contract mode) ----------------------------

def _environment(seed: int) -> dict[str, Any]:
    import numpy
    import scipy
    from repro.obs.bench_history import current_git_rev

    return {
        "seed": seed,
        "git_rev": current_git_rev(REPO),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _workload_layer_metrics(untraced: dict, traced: dict, spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of the run's own workload, from the traced
    repetition's spans, counters and kernel profile."""
    from defs import PER_LAYER_WORKLOAD
    from spans import self_times

    own = self_times(spans)
    probes = traced["probes"]
    counters = traced["net_counters"]
    run_until = own.get("netsim.run_until", 0.0) + own.get("live.run_until", 0.0)
    in_run_sampling = own.get("metrics.sample_lookup", 0.0) + (
        0.0 if traced["live"] else own["metrics.stretch"])
    out = {
        "topology.preset_build_s": own["topology.preset_build"],
        "topology.oracle_build_s": own["topology.oracle_build"],
        "topology.oracle_state_mb": traced["oracle_state_mb"],
        "overlay.build_s": own["overlay.build"],
        "harness.setup_self_s": own["harness.setup"],
        "harness.run_self_s": own["harness.run"],
        "netsim.run_until_s": run_until,
        "netsim.events": traced["events"],
        "netsim.heap_max": traced.get("heap_max", 0),
        "netsim.corpse_ratio": traced.get("corpse_ratio", 0.0),
        "core.probe_cycle_us": traced["run_until_cpu_s"] / probes * 1e6,
        "core.useful_share": traced["exchanges"] / probes,
        "net.msgs_per_probe": traced["messages"] / probes,
        "net.drop_share": traced["dropped"] / traced["sent"] if traced["sent"] else 0.0,
        "net.retry_share": counters.get("prepare_retries", 0) / probes,
        "net.timeout_share": sum(
            counters.get(k, 0)
            for k in ("walk_timeouts", "vote_timeouts", "prepared_timeouts")) / probes,
        "metrics.sample_s": own["metrics.stretch"] + own.get("metrics.sample_lookup", 0.0),
        "metrics.sample_share": in_run_sampling / traced["run_wall_s"],
        "fail_share": traced["fails"] / probes,
        "obs.traced_ratio": traced["run_wall_s"] / untraced["run_wall_s"],
    }
    profile = traced.get("kernel_profile")
    shares = {m.name: 0.0 for m in PER_LAYER_WORKLOAD if m.name.startswith("net.share.")}
    if profile is not None:
        total = profile["total_ns"]
        for category, ns in profile["categories"].items():
            name = "net.share." + category.replace(":", "_")
            if name in shares:
                shares[name] = ns / total
        shares["net.share.untracked"] = profile["untracked_ns"] / total
    out.update(shares)
    return out


def _accounting_problems(traced: dict, spans: list[dict]) -> list[str]:
    """The traced pass checks its own books: span self times partition
    the run region, and the kernel profile partitions its total."""
    from spans import subtree_self_total

    problems = []
    covered = subtree_self_total(spans, "harness.run")
    if abs(covered - traced["run_wall_s"]) > 0.02 * traced["run_wall_s"]:
        problems.append(
            f"span self times sum to {covered:.4f}s, run region is "
            f"{traced['run_wall_s']:.4f}s")
    profile = traced.get("kernel_profile")
    if profile is not None:
        tracked = sum(profile["categories"].values())
        if tracked + profile["untracked_ns"] != profile["total_ns"]:
            problems.append("kernel profile categories do not partition its total")
    return problems


def measure(args: argparse.Namespace) -> int:
    """One run of one workload in this process."""
    import micro
    import reps
    from defs import END_TO_END, PER_LAYER, WORKLOAD_BY_NAME
    from repro.live.transport import udp_loopback_available
    from spans import SpanRecorder

    workload = WORKLOAD_BY_NAME[args.workload]
    config = workload.config(args.seed)
    loopback = udp_loopback_available()
    if not loopback:
        # reported, not failed: the full ledger lists the workload as skipped
        _say("ledger: loopback UDP unavailable; live measurements skipped")
        if workload.live:
            return 3
    env = _environment(args.seed)
    env["calibration_s"] = micro.calibration()
    off = SpanRecorder(workload.name, enabled=False)

    if workload.warmup_duration:
        # untimed: pays lazy imports and first-call costs
        short = config.but(
            duration=workload.warmup_duration,
            sample_interval=min(config.sample_interval, workload.warmup_duration),
            lookups_per_sample=min(config.lookups_per_sample, 100),
        )
        warm = reps.run_rep(short, off)
        if reps.failed(warm):
            _say(f"ledger: warm-up failed: {warm['problems']}")

    rows: list[dict] = []
    spans: list[dict] = []
    problems: list[str] = []
    if args.trace:
        rec = SpanRecorder(workload.name)
        untraced = reps.run_rep(config, off)
        traced = reps.run_rep(config, rec, profile=True)
        rows, spans = [untraced, traced], rec.spans
        metrics: dict[str, float] = {}
        if not any(map(reps.failed, rows)):
            problems += _accounting_problems(traced, spans)
            metrics = _workload_layer_metrics(untraced, traced, spans)
            metrics.update(micro.run_all(args.seed, live=loopback))
            metrics["harness.machine_calibration_s"] = env["calibration_s"]
        declared = PER_LAYER
    else:
        budget = time.perf_counter() + args.seconds
        last = 0.0
        while len(rows) < workload.min_reps or time.perf_counter() + last <= budget:
            t0 = time.perf_counter()
            rows.append(reps.run_rep(config, off))
            last = time.perf_counter() - t0
        try:
            table = reps.end_to_end(rows, _peak_rss_mb())
        except RuntimeError as exc:
            problems.append(str(exc))
            table = {}
        metrics = {name: cell["value"] for name, cell in table.items()}
        declared = END_TO_END

    for i, row in enumerate(rows):
        row.update(workload=workload.name, rep=i, traced=bool(args.trace and i == 1), **env)
        problems += [f"rep {i}: {p}" for p in row["problems"]]
    digests = {row["sim_digest"] for row in rows if "sim_digest" in row}
    if len(digests) > 1:
        problems.append(f"repetitions of one seed disagree: sim_digest {sorted(digests)}")
    units = {m.name: m.unit for m in declared}
    missing = sorted(
        name for name in set(units) - set(metrics)
        if loopback or not name.startswith("live."))  # no loopback: reported above
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")

    digest = next(iter(digests)) if len(digests) == 1 else "-"
    _say(f"{workload.name}  seed={args.seed}  reps={len(rows)}  sim_digest={digest}")
    for name in units:
        if name in metrics:
            _say(f"  {name:42s} {metrics[name]:>14.6g} {units[name]}")
    for p in problems:
        _say(f"  PROBLEM {p}")

    attempted = sum(row["probes"] for row in rows)
    failed = sum(row["probes"] for row in rows if reps.failed(row))
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    if args.out:
        detail = {
            "rows": rows, "spans": spans, "sim_digest": digest, "problems": problems,
            "table": table if not args.trace else None, "env": env,
        }
        Path(args.out).write_text(json.dumps(detail) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


# -- the full ledger (parent) --------------------------------------------

def _child(workload: str, seed: int, seconds: int, trace: int, tmp: Path) -> dict[str, Any]:
    out = tmp / f"{workload}.{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False, timeout=900)
    took = time.perf_counter() - t0
    if proc.returncode == 3:
        return {"status": "skipped", "took_s": took}
    if not out.exists():
        return {"status": "crashed", "exit": proc.returncode, "took_s": took}
    detail = json.loads(out.read_text(encoding="utf-8"))
    detail["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    detail["status"] = "ok" if proc.returncode == 0 else "failed"
    detail["took_s"] = took
    return detail


def _derived(per_layer: dict[str, dict[str, float]], e2e: dict[str, dict],
             traces: dict[str, list[dict]]) -> dict[str, float]:
    """Cells of the table under the issue's own names, and the numbers
    that need two workloads."""
    from defs import ALIASES

    out: dict[str, float] = {}
    for alias, (workload, name) in ALIASES.items():
        if workload in per_layer:
            out[alias] = per_layer[workload][name]
    lookups = [s["end"] - s["start"] for s in traces.get("scale_n5000", [])
               if s["name"] == "metrics.sample_lookup"]
    if lookups:
        out["metrics.sample_lookup_s.n5000"] = sum(lookups) / len(lookups)
        out["overlay.flood_lookup_us.n5000"] = out["metrics.sample_lookup_s.n5000"] / 1000 * 1e6
    small, large = e2e.get("fig5a_inline"), e2e.get("scale_n5000")
    if small and large:
        for key, metric in (("run", "wall_s_per_sim_hour"), ("setup", "setup_s")):
            out[f"harness.scaling_exponent_{key}"] = (
                math.log(large[metric]["value"] / small[metric]["value"]) / math.log(5))
    return out


def ledger(args: argparse.Namespace) -> int:
    from defs import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    RESULTS.mkdir(exist_ok=True)
    summary: dict[str, Any] = {"schema": "repro.ledger/1", "seed": args.seed,
                               "run_seconds": RUN_SECONDS, "workloads": {}}
    raw_rows: list[dict] = []
    traces: dict[str, list[dict]] = {}
    bad = False
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        for name in names:
            entry: dict[str, Any] = {}
            passes = [0, 1] if args.traced else [0]
            for trace in passes:
                detail = _child(name, args.seed, RUN_SECONDS, trace, Path(tmp))
                entry["status"] = detail["status"]
                if detail["status"] in ("skipped", "crashed"):
                    bad |= detail["status"] == "crashed"
                    break
                bad |= detail["status"] != "ok"
                summary.setdefault("env", detail["env"])
                raw_rows += detail["rows"]
                entry["problems"] = entry.get("problems", []) + detail["problems"]
                key = "traced_took_s" if trace else "took_s"
                entry[key] = round(detail["took_s"], 2)
                if trace:
                    traces[name] = detail["spans"]
                    entry["per_layer"] = {
                        k: v["value"] for k, v in detail["result"]["metrics"].items()}
                else:
                    entry.update(
                        reps=len(detail["rows"]), sim_digest=detail["sim_digest"],
                        attempted=detail["result"]["attempted"],
                        failed=detail["result"]["failed"], end_to_end=detail["table"])
            summary["workloads"][name] = entry
            _say(f"[{name}] {entry['status']}")
    done = summary["workloads"]
    summary["derived"] = _derived(
        {w: e["per_layer"] for w, e in done.items() if "per_layer" in e},
        {w: e["end_to_end"] for w, e in done.items() if "end_to_end" in e},
        traces)

    (RESULTS / "runs.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in raw_rows), encoding="utf-8")
    (RESULTS / "summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, spans in traces.items():  # one span per line
        (RESULTS / f"trace.{name}.json").write_text(
            "[\n" + ",\n".join(json.dumps(span) for span in spans) + "\n]\n",
            encoding="utf-8")

    for title, declared, field in (("end to end", END_TO_END, "end_to_end"),
                                   ("per layer (traced pass)", PER_LAYER, "per_layer")):
        shown = [w for w, e in done.items() if field in e]
        if not shown:
            continue
        print(f"\n== {title} ==")
        print(f"{'metric':42s} {'unit':6s} " + " ".join(f"{w:>15s}" for w in shown))
        for m in declared:
            cells = []
            for w in shown:
                cell = done[w][field].get(m.name)
                value = cell["value"] if isinstance(cell, dict) else cell
                cells.append(f"{value:15.6g}" if value is not None else f"{'-':>15s}")
            print(f"{m.name:42s} {m.unit:6s} " + " ".join(cells))
    if summary["derived"]:
        print("\n== derived ==")
        for name, value in summary["derived"].items():
            print(f"{name:42s} {value:15.6g}")
    print()
    for w, e in done.items():
        print(f"{w:16s} {e['status']:8s} reps={e.get('reps', '-')} "
              f"sim_digest={e.get('sim_digest', '-')} problems={e.get('problems', [])}")
    print(f"wrote {RESULTS / 'summary.json'}")
    return 1 if bad else 0


# -- comparing two summaries ---------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Per (metric, workload): both medians and quartiles, the bound,
    and ok / regressed / unresolved (spread wider than the bound)."""
    from defs import COMPARE_OVERRIDES, END_TO_END

    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    if a["env"]["calibration_s"] and b["env"]["calibration_s"]:
        drift = b["env"]["calibration_s"] / a["env"]["calibration_s"]
        print(f"machine calibration B/A = {drift:.3f}"
              + ("  (different machines or load: timings are not comparable raw)"
                 if abs(drift - 1.0) > 0.10 else ""))
    regressed = 0
    print(f"{'workload':16s} {'metric':22s} {'A [q1..q3]':>34s} {'B [q1..q3]':>34s} "
          f"{'bound':>8s}  verdict")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None or "end_to_end" not in wa or "end_to_end" not in wb:
            print(f"{workload:16s} not in both summaries ({wa['status']}, "
                  f"{wb['status'] if wb else 'absent'})")
            continue
        for metric in END_TO_END:
            metric = COMPARE_OVERRIDES.get((workload, metric.name), metric)
            ca, cb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            sign = 1.0 if metric.better == "lower" else -1.0
            worse = sign * (cb["value"] - ca["value"])
            spread = max(ca["q3"] - ca["q1"], cb["q3"] - cb["q1"])
            if metric.same_seed_abs is not None:
                bound, shown = metric.same_seed_abs, f"+{metric.same_seed_abs:g}"
            else:
                assert metric.same_seed is not None
                bound, shown = metric.same_seed * abs(ca["value"]), f"{metric.same_seed:.0%}"
            all_better = (cb["max"] < ca["min"]) if sign > 0 else (cb["min"] > ca["max"])
            if spread > bound and not all_better:
                verdict = f"unresolved (spread {spread:.4g})"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            fmt = "{value:12.6g} [{q1:9.5g}..{q3:9.5g}]".format
            print(f"{workload:16s} {metric.name:22s} {fmt(**ca):>34s} {fmt(**cb):>34s} "
                  f"{shown:>8s}  {verdict}")
        same = wa.get("sim_digest") == wb.get("sim_digest")
        print(f"{workload:16s} {'sim_digest':22s} {wa.get('sim_digest', '-'):>34s} "
              f"{wb.get('sim_digest', '-'):>34s} {'exact':>8s}  "
              f"{'identical' if same else 'changed'}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", help="one workload (default: all)")
    p.add_argument("--traced", action="store_true",
                   help="full ledger: add the traced per-layer pass")
    p.add_argument("--seconds", type=int,
                   help="one measured run in this process, measuring this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --seconds: 0 = end-to-end metrics, 1 = per-layer")
    p.add_argument("--out", help="with --seconds: also write raw rows and spans here")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--write-manifest", action="store_true",
                   help="regenerate the repo-root BENCHMARK.json from defs.py")
    args = p.parse_args(argv)
    _import_program()
    from defs import WORKLOAD_BY_NAME, manifest

    if args.compare:
        return compare(*args.compare)
    if args.write_manifest:
        (REPO / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload and args.workload not in WORKLOAD_BY_NAME:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOAD_BY_NAME)}")
    if args.seconds is None:
        return ledger(args)
    if not args.workload:
        p.error("--seconds needs --workload")
    try:
        return measure(args)
    except Exception:
        # without a result line: the caller must see a failed run, not numbers
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
