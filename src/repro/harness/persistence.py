"""The run record: one JSON file per run, and everything that reads it.

``repro run --save PATH`` writes a record (with ``--seeds``, one per
seed); ``repro show`` renders one as markdown, ``repro compare A B``
names everything that differs between two, and ``repro report DIR``
tabulates a directory of them.  A record (schema ``repro.run/2``) holds
exactly:

* ``config`` — the config echo, nested dataclasses as objects tagged
  ``__dataclass__``: enough to re-run it with :func:`run_experiment`;
* ``series`` — the seven sampled series; a NaN sample is ``null``, so
  the file is strict JSON;
* ``metrics`` — :func:`~repro.obs.registry.metrics_snapshot` of the
  final counters;
* ``phases`` — simulated seconds of warm-up and maintenance;
* ``event_counts`` — trace events by type, ``{}`` unless traced;
* ``profile`` — the run's :class:`~repro.obs.prof.KernelProfile` on
  either plane (integer nanoseconds and event counts per category, the
  ``untracked`` residual, the total they partition, the event-heap
  summary), ``{}`` unless profiled.

The protocol and overlay objects are not stored: a record is a
measurement, reproducible from its config.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.harness.experiment import ExperimentResult, warmup_seconds
from repro.harness.reporting import format_table
from repro.obs.prof import KernelProfile
from repro.obs.registry import percentile_from_buckets

__all__ = ["SCHEMA", "RunRecord", "compare_records", "describe_config", "load_record",
           "render_record", "save_record", "tabulate_records", "to_record"]

SCHEMA = "repro.run/2"

_SERIES = ("times", "stretch", "link_stretch", "lookup_latency",
           "probes", "messages", "exchanges")

#: The series ``show`` and ``report`` summarize, initial -> final.
_HEADLINE = ("lookup_latency", "stretch", "link_stretch")


def _jsonable(value: Any) -> Any:
    """Nested (frozen) dataclass configs -> tagged plain JSON values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{f.name: _jsonable(getattr(value, f.name))
               for f in dataclasses.fields(value)},
        }
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return value


def to_record(result: ExperimentResult) -> dict[str, Any]:
    """The JSON-ready record of one run (see the module docs)."""
    config = result.config
    phases = {"measurement": float(config.duration)}
    if config.prop is not None:
        warmup = warmup_seconds(config)
        phases = {"warmup": warmup, "maintenance": float(config.duration) - warmup}
    return {
        "schema": SCHEMA,
        "config": _jsonable(config),
        "series": {
            name: [None if v != v else v for v in np.asarray(getattr(result, name)).tolist()]
            for name in _SERIES
        },
        "metrics": result.metrics(),
        "phases": phases,
        "event_counts": dict(sorted(Counter(ev.etype for ev in result.trace or ()).items())),
        "profile": result.kernel_profile or {},
    }


def save_record(result: ExperimentResult, path: str | Path) -> Path:
    """Write ``result``'s record to ``path``, creating missing parent
    directories.  Returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_record(result), indent=1, allow_nan=False) + "\n",
                    encoding="utf-8")
    return path


@dataclass
class RunRecord:
    """A loaded record; ``series`` maps each name to an array (NaN for
    null), and ``profile`` is None for an unprofiled run."""

    config: dict[str, Any]
    series: dict[str, np.ndarray]
    metrics: dict[str, Any]
    phases: dict[str, float]
    event_counts: dict[str, int]
    profile: KernelProfile | None


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


#: What each mapping of a record must hold, value by value.
_BODY_CHECKS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "metrics": ("a finite number or a histogram",
                lambda v: _is_finite(v) or _is_histogram(v)),
    "phases": ("a number", _is_number),
    "event_counts": ("an int", _is_int),
}


def load_record(path: str | Path) -> RunRecord:
    """Read a record back; ``ValueError`` (naming ``path``) if it is not one.

    Besides the key sets, every value :func:`render_record` and
    :func:`compare_records` format is checked, so a record that loads
    also renders.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON (truncated?): {exc}") from None
    if not isinstance(data, dict) or data.pop("schema", None) != SCHEMA:
        raise ValueError(f"{path} is not a run record ({SCHEMA})")
    fields = [f.name for f in dataclasses.fields(RunRecord)]
    if set(data) != set(fields):
        raise ValueError(f"{path}: keys missing {sorted(set(fields) - set(data))}, "
                         f"unexpected {sorted(set(data) - set(fields))}")
    config, series = data["config"], data["series"]
    if not (isinstance(config, dict) and _is_int(config.get("seed"))
            and _is_number(config.get("duration"))):
        raise ValueError(f"{path}: config is not an object with an int seed "
                         "and a numeric duration")
    if not isinstance(series, dict):
        raise ValueError(f"{path}: series is not an object")
    if set(series) != set(_SERIES):
        raise ValueError(f"{path}: series keys missing {sorted(set(_SERIES) - set(series))}, "
                         f"unknown {sorted(set(series) - set(_SERIES))}")
    length = len(series["times"]) if isinstance(series["times"], list) else 0
    bad = sorted(name for name, values in series.items()
                 if not (isinstance(values, list) and len(values) == length > 0
                         and all(v is None or _is_number(v) for v in values)))
    if bad:
        raise ValueError(f"{path}: series is not a non-empty list of numbers "
                         f"(or null) as long as times: {', '.join(bad)}")
    for section, (expected, ok) in _BODY_CHECKS.items():
        table = data[section]
        if not isinstance(table, dict):
            raise ValueError(f"{path}: {section} is not an object")
        wrong = sorted(name for name, value in table.items() if not ok(value))
        if wrong:
            raise ValueError(f"{path}: {section} value is not {expected}: "
                             f"{', '.join(wrong)}")
    try:
        data["profile"] = None if data["profile"] == {} else KernelProfile.from_dict(
            data["profile"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    data["series"] = {name: np.asarray([np.nan if v is None else v for v in values])
                      for name, values in series.items()}
    return RunRecord(**data)


# -- reading records ------------------------------------------------------


def describe_config(config: Mapping[str, Any]) -> str:
    """One-phrase description of a record's config."""
    prop = config.get("prop")
    optimizer = "LTM" if config.get("ltm") else "none"
    if prop:
        m = prop.get("m") if prop.get("policy") == "O" else None
        optimizer = f"PROP-{prop.get('policy', '?')}" + (f" m={m}" if m is not None else "")
    flags = [flag for key, flag in (("heterogeneous", "het"), ("churn", "churn"))
             if config.get(key)]
    return " ".join([str(config.get("overlay_kind", "?")), f"n={config.get('n_overlay', '?')}",
                     optimizer, *flags, str(config.get("preset", "?"))])


def _endpoints(series: np.ndarray) -> tuple[float, float, float]:
    """First and last finite samples and their ratio (NaN when undefined)."""
    finite = series[np.isfinite(series)].astype(np.float64)
    if finite.size == 0:
        return math.nan, math.nan, math.nan
    first, last = float(finite[0]), float(finite[-1])
    return first, last, last / first if first else math.nan


def _flat_metrics(snapshot: Mapping[str, Any]) -> Iterable[tuple[str, float]]:
    """Scalar view of a metrics snapshot: a histogram flattens to its
    count / sum and the p50 / p95 / p99 estimated from its buckets."""
    for name, value in snapshot.items():
        if isinstance(value, dict):
            yield f"{name}.count", value["count"]
            yield f"{name}.sum", value["sum"]
            for q in (50, 95, 99):
                yield (f"{name}.p{q}",
                       percentile_from_buckets(value["edges"], value["counts"], float(q)))
        else:
            yield name, value


def _md_table(title: str, headers: tuple[str, str], rows: Iterable[tuple[str, str]]) -> list[str]:
    lines = ["", f"## {title}", "", f"| {headers[0]} | {headers[1]} |", "| --- | ---: |"]
    return lines + [f"| {name} | {value} |" for name, value in rows]


def render_record(record: RunRecord, label: str = "") -> str:
    """The one rendering of a record, as markdown (``repro show``)."""
    config, times = record.config, record.series["times"]
    lines = [
        f"# Run record{': ' + label if label else ''}",
        "",
        f"- deployment: {describe_config(config)}",
        f"- seed: {config['seed']}",
        f"- simulated duration: {config['duration']:.0f} s, {times.size} samples",
        "",
        "| series | initial | final | final/initial |",
        "| --- | ---: | ---: | ---: |",
    ]
    for name in _HEADLINE:
        first, last, ratio = _endpoints(record.series[name])
        lines.append(f"| {name} | {first:.3f} | {last:.3f} | {ratio:.3f} |")
    lines += _md_table("Phases (simulated seconds)", ("phase", "seconds"),
                       ((name, f"{s:.0f}") for name, s in record.phases.items()))
    lines += _md_table("Metrics", ("metric", "value"), (
        (name, f"{v:.3f}" if v != int(v) else f"{int(v)}")
        for name, v in _flat_metrics(record.metrics)))
    if record.event_counts:
        lines += _md_table("Trace events", ("event", "count"),
                           ((name, str(n)) for name, n in record.event_counts.items()))
    if record.profile is not None:
        lines += ["", "## Wall-clock profile", "", "```text", record.profile.table(), "```"]
    return "\n".join(lines) + "\n"


def _flat_config(config: Any, prefix: str = "") -> Iterable[tuple[str, Any]]:
    """Dotted leaves of a config echo (dataclass tags left out)."""
    if isinstance(config, dict) and config:
        for key, value in config.items():
            if key != "__dataclass__":
                yield from _flat_config(value, f"{prefix}{key}.")
    else:
        yield prefix.rstrip("."), config


def _scalars(record: RunRecord) -> dict[str, float]:
    """Every number ``compare`` weighs: metrics, series endpoints, events
    and the wall seconds of each profile category."""
    out = dict(_flat_metrics(record.metrics))
    for name in _SERIES[1:]:
        first, last, _ = _endpoints(record.series[name])
        out[f"series.{name}.initial"] = first
        out[f"series.{name}.final"] = last
    out.update((f"events.{name}", n) for name, n in record.event_counts.items())
    profile = record.profile
    if profile is not None:
        ns_by_name = {**profile.categories, "untracked": profile.untracked_ns,
                      "total": profile.total_ns}
        out.update((f"profile.{name}", ns / 1e9) for name, ns in ns_by_name.items())
    return out


def compare_records(a: RunRecord, b: RunRecord) -> str:
    """Everything that differs between two records, A then B.

    First the config fields (dotted names), then every metric, series
    endpoint, trace event count and profile category (wall seconds); a
    number present in one record only shows ``-`` on the other side.
    ``(no differences)`` when none does.
    """
    missing = object()
    config_a, config_b = dict(_flat_config(a.config)), dict(_flat_config(b.config))
    lines = [f"config {name}: {config_a.get(name, '-')} -> {config_b.get(name, '-')}"
             for name in sorted(set(config_a) | set(config_b))
             if config_a.get(name, missing) != config_b.get(name, missing)]
    scalars_a, scalars_b = _scalars(a), _scalars(b)
    rows = []
    for name in sorted(set(scalars_a) | set(scalars_b)):
        va, vb = scalars_a.get(name), scalars_b.get(name)
        # two NaN endpoints (a series never sampled) are the same
        if va is None or vb is None or not (va == vb or va != va and vb != vb):
            delta = vb - va if va is not None and vb is not None else "-"
            rows.append([name, "-" if va is None else va, "-" if vb is None else vb, delta])
    if rows:
        lines += ["", format_table(["name", "A", "B", "B-A"], rows)]
    return "\n".join(lines).lstrip("\n") or "(no differences)"


def tabulate_records(directory: str | Path, *, metric: str = "lookup_latency") -> str:
    """One row per record under ``directory`` (sorted by file name).

    Files that are not records are listed as skipped rather than
    aborting the table; ``ValueError`` if ``directory`` is not one or
    holds no record.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"{directory} is not a directory")
    rows, skipped = [], []
    for path in sorted(directory.glob("*.json")):
        try:
            record = load_record(path)
        except (ValueError, OSError):
            skipped.append(path.name)
            continue
        rows.append([path.name, describe_config(record.config),
                     *_endpoints(record.series[metric])])
    if not rows:
        raise ValueError(f"no run records under {directory}")
    out = format_table(["file", "deployment", f"initial {metric}", f"final {metric}",
                        "final/initial"], rows)
    if skipped:
        out += "\n\nskipped (not run records): " + ", ".join(skipped)
    return out
