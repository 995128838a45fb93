"""Per-run reports.

A :class:`RunReport` is the machine-readable record of one experiment —
the muBench-style artifact that downstream analysis consumes without
re-running the simulation: the config fingerprint and seed that
reproduce it, the final unified metrics snapshot, the per-phase
sim-time breakdown, trace event totals, and (when the run was
kernel-profiled) the wall-clock seconds per profile category.

Reports serialize to JSON (``save_report`` / ``load_report``), render
to markdown (``render_markdown`` — ``make report``), and diff against
each other (``diff_reports`` — ``python -m repro.obs diff``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter as _TallyCounter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.obs.registry import _as_flat_items, metrics_snapshot

__all__ = [
    "REPORT_SCHEMA",
    "RunReport",
    "build_replicate_report",
    "build_run_report",
    "config_fingerprint",
    "diff_reports",
    "load_report",
    "render_markdown",
    "save_report",
]

REPORT_SCHEMA = "repro.run-report/1"


def _jsonable(value: Any) -> Any:
    """Nested dataclasses / tuples -> plain JSON values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and callable(value.item):  # numpy scalars
        return value.item()
    return value


def config_fingerprint(config: Any) -> str:
    """Stable sha256 over the canonical JSON form of a config."""
    canon = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunReport:
    """The per-run measurement record (see module docs)."""

    fingerprint: str
    seed: int
    duration: float
    metrics: dict[str, Any]
    phases: dict[str, float]
    event_counts: dict[str, int] = field(default_factory=dict)
    profile: dict[str, float] = field(default_factory=dict)
    samples: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"schema": REPORT_SCHEMA, **_jsonable(self)}


def _phase_breakdown(config: Any) -> dict[str, float]:
    """Sim-time split between warm-up and maintenance.

    Warm-up is the fixed-period phase: ``MAX_INIT_TRIAL`` probe cycles
    at ``INIT_TIMER`` seconds each (Section 3.2); everything after is
    Markov-timer maintenance.  Runs without an optimizer are all
    "measurement" time.
    """
    duration = float(config.duration)
    prop = getattr(config, "prop", None)
    if prop is None:
        return {"measurement": duration}
    warmup = min(duration, float(prop.max_init_trial) * float(prop.init_timer))
    return {"warmup": warmup, "maintenance": duration - warmup}


def build_run_report(result: Any) -> RunReport:
    """Assemble the report for one ExperimentResult.

    The report's ``profile`` is the result's ``kernel_profile`` as
    category -> seconds (``untracked`` included, so the values sum to
    the profiled total); empty when the run was not profiled.
    """
    config = result.config
    event_counts: dict[str, int] = {}
    trace = getattr(result, "trace", None)
    if trace:
        event_counts = dict(sorted(_TallyCounter(ev.etype for ev in trace).items()))
    kernel = getattr(result, "kernel_profile", None)
    profile: dict[str, float] = {}
    if kernel:
        profile = {name: ns / 1e9 for name, ns in kernel["categories"].items()}
        profile["untracked"] = kernel["untracked_ns"] / 1e9
    samples = {
        "initial_lookup_latency_ms": float(result.lookup_latency[0]),
        "final_lookup_latency_ms": float(result.lookup_latency[-1]),
        "initial_link_stretch": float(result.link_stretch[0]),
        "final_link_stretch": float(result.link_stretch[-1]),
    }
    return RunReport(
        fingerprint=config_fingerprint(config),
        seed=int(config.seed),
        duration=float(config.duration),
        metrics=metrics_snapshot(result.final_counters, result.net_counters,
                                 result.net_stats),
        phases=_phase_breakdown(config),
        event_counts=event_counts,
        profile=profile,
        samples={k: v for k, v in samples.items() if v == v},  # drop NaNs
    )


def build_replicate_report(summary: Any) -> RunReport:
    """Assemble one aggregate report for a replicated run.

    ``summary`` is a :class:`repro.harness.replicate.ReplicationSummary`
    (duck-typed, like :func:`build_run_report`'s result).  The result is an
    *ordinary* :class:`RunReport` — metrics are per-metric means over
    the per-seed reports (plus a ``replicate.n_replicas`` marker), trace
    event counts are summed, and the samples block carries the
    cross-seed spread — so the existing ``diff`` / ``render`` machinery
    applies to replicated runs unchanged.
    """
    per_seed = [build_run_report(result) for result in summary.results]
    if not per_seed:
        raise ValueError("replication summary has no results")
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for rep in per_seed:
        for name, value in _as_flat_items(rep.metrics):
            sums[name] = sums.get(name, 0.0) + value
            counts[name] = counts.get(name, 0) + 1
    metrics: dict[str, Any] = {name: sums[name] / counts[name] for name in sorted(sums)}
    metrics["replicate.n_replicas"] = float(summary.n_replicas)
    event_counts: dict[str, int] = {}
    for rep in per_seed:
        for name, count in rep.event_counts.items():
            event_counts[name] = event_counts.get(name, 0) + count
    latency = summary.lookup_latency
    samples = {
        "final_lookup_latency_ms_mean": float(latency.mean[-1]),
        "final_lookup_latency_ms_std": float(latency.std[-1]),
        "final_lookup_latency_ms_min": float(latency.low[-1]),
        "final_lookup_latency_ms_max": float(latency.high[-1]),
        "improvement_ratio_mean": float(summary.mean_improvement()),
        "improvement_ratio_std": float(summary.std_improvement()),
    }
    config = summary.config
    return RunReport(
        fingerprint=config_fingerprint(config),
        seed=int(summary.seeds[0]),
        duration=float(config.duration),
        metrics=metrics,
        phases=_phase_breakdown(config),
        event_counts=dict(sorted(event_counts.items())),
        samples={k: v for k, v in samples.items() if v == v},  # drop NaNs
    )


# -- persistence ----------------------------------------------------------


def save_report(report: RunReport, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_finite(value: Any) -> bool:
    return _is_number(value) and math.isfinite(value)


def _is_histogram(value: Any) -> bool:
    """The ``prop.var`` shape: sorted finite edges, one count per bucket
    plus the overflow bucket, a finite count and sum."""
    if not isinstance(value, dict) or set(value) != {"edges", "counts", "count", "sum"}:
        return False
    edges, counts = value["edges"], value["counts"]
    return (isinstance(edges, list) and bool(edges) and all(map(_is_finite, edges))
            and edges == sorted(edges) and isinstance(counts, list)
            and len(counts) == len(edges) + 1 and all(map(_is_int, counts))
            and _is_finite(value["count"]) and _is_finite(value["sum"]))


#: What each mapping of a report must hold, value by value.
_BODY_CHECKS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "metrics": ("a finite number or a histogram",
                lambda v: _is_finite(v) or _is_histogram(v)),
    "phases": ("a number", _is_number),
    "samples": ("a number", _is_number),
    "profile": ("a number", _is_number),
    "event_counts": ("an int", _is_int),
}


def load_report(path: str | Path) -> RunReport:
    """Read a report back; ``ValueError`` (naming ``path``) if it is not one.

    Besides the key set, every value :func:`render_markdown` and
    :func:`diff_reports` format is checked, so a report that loads also
    renders.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON (truncated?): {exc}") from exc
    if not isinstance(data, dict) or data.pop("schema", None) != REPORT_SCHEMA:
        raise ValueError(f"{path} is not a run report ({REPORT_SCHEMA})")
    try:
        report = RunReport(**data)
    except TypeError as exc:  # names the missing / unexpected keys
        raise ValueError(f"{path} is a malformed run report: {exc}") from exc
    if not (isinstance(report.fingerprint, str) and _is_int(report.seed)
            and _is_number(report.duration)):
        raise ValueError(f"{path}: fingerprint, seed or duration has the wrong type")
    for section, (expected, ok) in _BODY_CHECKS.items():
        table = getattr(report, section)
        if not isinstance(table, dict):
            raise ValueError(f"{path}: {section} is not an object")
        bad = sorted(name for name, value in table.items() if not ok(value))
        if bad:
            raise ValueError(f"{path}: {section} value is not {expected}: "
                             f"{', '.join(bad)}")
    return report


# -- rendering ------------------------------------------------------------


def render_markdown(report: RunReport) -> str:
    """Human-readable markdown rendering (``make report``)."""
    lines = [
        "# Run report",
        "",
        f"- config fingerprint: `{report.fingerprint}`",
        f"- seed: {report.seed}",
        f"- simulated duration: {report.duration:.0f} s",
        "",
        "## Phases (simulated seconds)",
        "",
        "| phase | seconds |",
        "| --- | ---: |",
    ]
    for name, seconds in report.phases.items():
        lines.append(f"| {name} | {seconds:.0f} |")
    if report.samples:
        lines += ["", "## Headline samples", "", "| sample | value |", "| --- | ---: |"]
        for name, value in report.samples.items():
            lines.append(f"| {name} | {value:.3f} |")
    lines += ["", "## Metrics", "", "| metric | value |", "| --- | ---: |"]
    for name, value in _as_flat_items(report.metrics):
        rendered = f"{value:.3f}" if value != int(value) else f"{int(value)}"
        lines.append(f"| {name} | {rendered} |")
    if report.event_counts:
        lines += ["", "## Trace events", "", "| event | count |", "| --- | ---: |"]
        for name, count in report.event_counts.items():
            lines.append(f"| {name} | {count} |")
    if report.profile:
        lines += ["", "## Wall-clock profile (seconds per kernel category)",
                  "", "| category | seconds |", "| --- | ---: |"]
        for name, seconds in sorted(report.profile.items()):
            lines.append(f"| {name} | {seconds:.3f} |")
    return "\n".join(lines) + "\n"


# -- diffing --------------------------------------------------------------


def _diff_rows(a: Mapping[str, float], b: Mapping[str, float],
               *, prefix: str = "") -> list[str]:
    """Rows for every key differing between two scalar mappings.

    A key present in only one run still shows its *value* — a metric
    appearing or vanishing between runs (a new drop reason, a counter
    that never fired) is exactly the kind of change a diff exists to
    surface, so "a only" alone would hide the interesting number.
    """
    rows: list[str] = []
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        label = f"{prefix}{name}"
        if va is None:
            rows.append(f"{label:<40} {'-':>14} {vb:>14.3f} {'(b only)':>14}")
        elif vb is None:
            rows.append(f"{label:<40} {va:>14.3f} {'-':>14} {'(a only)':>14}")
        elif va != vb:
            rows.append(f"{label:<40} {va:>14.3f} {vb:>14.3f} {vb - va:>+14.3f}")
    return rows


def diff_reports(a: RunReport, b: RunReport) -> str:
    """Metric-by-metric comparison of two runs (text table).

    Flags config-fingerprint mismatches (the runs are not the same
    world) and reports every scalar metric, headline sample and trace
    event count present in either report; one-sided entries keep their
    value and are marked ``(a only)`` / ``(b only)``.
    """
    lines: list[str] = []
    if a.fingerprint != b.fingerprint:
        lines.append(
            f"configs differ: {a.fingerprint} vs {b.fingerprint} "
            "(comparing across worlds)"
        )
    if a.seed != b.seed:
        lines.append(f"seeds differ: {a.seed} vs {b.seed}")
    header = f"{'metric':<40} {'a':>14} {'b':>14} {'delta':>14}"
    lines += [header, "-" * len(header)]
    lines += _diff_rows(dict(_as_flat_items(a.metrics)),
                        dict(_as_flat_items(b.metrics)))
    lines += _diff_rows(a.samples, b.samples, prefix="samples.")
    counts = sorted(set(a.event_counts) | set(b.event_counts))
    for name in counts:
        ca, cb = a.event_counts.get(name, 0), b.event_counts.get(name, 0)
        if ca != cb:
            lines.append(f"{'events.' + name:<40} {ca:>14} {cb:>14} {cb - ca:>+14}")
    if len(lines) <= 2:
        lines.append("(no metric differences)")
    return "\n".join(lines)
