"""repro.obs — structured event tracing, unified metrics, run reports.

Six layers, each usable alone:

* :mod:`repro.obs.events` / :mod:`repro.obs.trace` — the typed event
  schema and the :class:`Tracer` event bus the engines and transports
  emit into (``NullTracer`` when off: one attribute check, zero cost;
  ``streaming=True`` dispatches to subscribers and discards raw events);
* :mod:`repro.obs.monitor` — the active half: the streaming
  convergence detectors behind the CLI's ``--monitor`` progress line;
* :mod:`repro.obs.registry` — the unified :class:`MetricsRegistry`
  that absorbs the legacy ProtocolCounters / NetCounters /
  TransportStats surfaces into one namespace;
* :mod:`repro.obs.report` / :mod:`repro.obs.analyze` /
  :mod:`repro.obs.spans` — per-run :class:`RunReport` artifacts and the
  ``python -m repro.obs`` trace analyzers (2PC timelines, causal span
  trees, critical paths);
* :mod:`repro.obs.telemetry` — the live deployment plane's periodic
  JSONL snapshot exporter;
* :mod:`repro.obs.prof` — the kernel profiling plane:
  :class:`KernelProfiler` attributes wall-clock nanoseconds to a closed
  category registry at the simulator's dispatch point, exporting
  attribution tables, collapsed stacks and speedscope JSON (the one
  obs module sanctioned to read wall clocks).

Benchmarks are not measured here: the one ledger is
``benchmarks/ledger/`` (``BENCHMARK.json``); :mod:`repro.obs.bench_history`
keeps only the ``current_git_rev`` helper it imports.

This package never imports from the harness or the engines — they
import it.
"""

from repro.obs.analyze import (
    ExchangeTimeline,
    TraceAnalysis,
    load_trace,
    reconstruct_timelines,
    render_timelines,
)
from repro.obs.bench_history import current_git_rev
from repro.obs.events import (
    EVENT_TYPES,
    ChurnJoin,
    ChurnLeave,
    Event,
    ExchangeAbortEvent,
    ExchangeCommitEvent,
    ExchangePrepareEvent,
    ExchangeTimeoutEvent,
    MsgDeliverEvent,
    MsgDropEvent,
    MsgSendEvent,
    MsgTimeoutEvent,
    ProbeEvent,
    SpanEndEvent,
    SpanStartEvent,
    VarCollectEvent,
    event_from_dict,
    event_to_dict,
    events_from_jsonl,
    events_to_jsonl,
)
from repro.obs.monitor import (
    ConvergenceMonitor,
    ExchangeEfficacy,
    MonitorStatus,
    ThrashDetector,
    find_monitor,
    format_status,
)
from repro.obs.registry import (
    NET_TABLE_COLUMNS,
    VAR_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    absorb_net_counters,
    absorb_protocol_counters,
    absorb_transport_stats,
    net_summary_rows,
    percentile_from_buckets,
    registry_from_result,
)
from repro.obs.prof import (
    CATEGORIES,
    CategoryMismatchError,
    KernelProfile,
    KernelProfiler,
    PROFILE_SCHEMA,
    ProfileError,
    classify_event,
    diff_table,
    validate_speedscope,
)
from repro.obs.report import (
    REPORT_SCHEMA,
    RunReport,
    build_replicate_report,
    build_run_report,
    config_fingerprint,
    diff_reports,
    load_report,
    render_markdown,
    save_report,
)
from repro.obs.spans import (
    CriticalSegment,
    Span,
    SpanAnalysis,
    SpanAssembler,
    SpanTree,
    analysis_to_dict,
    assemble_spans,
    critical_path,
    dump_analysis,
    path_totals,
    render_critical_paths,
    render_span_trees,
)
from repro.obs.telemetry import (
    TelemetryExporter,
    TelemetrySnapshot,
    load_telemetry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    TraceConsumer,
    Tracer,
    TracerLike,
    write_events_jsonl,
)

__all__ = [
    "CATEGORIES",
    "CategoryMismatchError",
    "ChurnJoin",
    "ChurnLeave",
    "ConvergenceMonitor",
    "Counter",
    "CriticalSegment",
    "EVENT_TYPES",
    "Event",
    "ExchangeAbortEvent",
    "ExchangeCommitEvent",
    "ExchangeEfficacy",
    "ExchangePrepareEvent",
    "ExchangeTimeline",
    "ExchangeTimeoutEvent",
    "Gauge",
    "Histogram",
    "KernelProfile",
    "KernelProfiler",
    "MetricsRegistry",
    "MonitorStatus",
    "MsgDeliverEvent",
    "MsgDropEvent",
    "MsgSendEvent",
    "MsgTimeoutEvent",
    "NET_TABLE_COLUMNS",
    "NULL_TRACER",
    "NullTracer",
    "PROFILE_SCHEMA",
    "ProbeEvent",
    "ProfileError",
    "REPORT_SCHEMA",
    "RunReport",
    "Span",
    "SpanAnalysis",
    "SpanAssembler",
    "SpanEndEvent",
    "SpanStartEvent",
    "SpanTree",
    "TelemetryExporter",
    "TelemetrySnapshot",
    "ThrashDetector",
    "TraceAnalysis",
    "TraceConsumer",
    "Tracer",
    "TracerLike",
    "VAR_BUCKETS",
    "VarCollectEvent",
    "absorb_net_counters",
    "absorb_protocol_counters",
    "absorb_transport_stats",
    "analysis_to_dict",
    "assemble_spans",
    "build_replicate_report",
    "build_run_report",
    "classify_event",
    "config_fingerprint",
    "critical_path",
    "current_git_rev",
    "diff_reports",
    "diff_table",
    "dump_analysis",
    "event_from_dict",
    "event_to_dict",
    "events_from_jsonl",
    "events_to_jsonl",
    "find_monitor",
    "format_status",
    "load_report",
    "load_telemetry",
    "load_trace",
    "net_summary_rows",
    "path_totals",
    "percentile_from_buckets",
    "reconstruct_timelines",
    "registry_from_result",
    "render_critical_paths",
    "render_markdown",
    "render_span_trees",
    "render_timelines",
    "save_report",
    "validate_speedscope",
    "write_events_jsonl",
]
