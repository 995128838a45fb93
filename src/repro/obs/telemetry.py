"""The live telemetry exporter: periodic JSONL snapshots of a run.

A long-running deployment (``repro.live``) cannot wait for the final
report to find out how it is doing.  :class:`TelemetrySnapshot` is one
periodic observation — the full
:func:`~repro.obs.registry.metrics_snapshot`, the span-assembler
liveness gauges (open spans / open traces / completed trees) and the
per-peer wire-byte counters — and :class:`TelemetryExporter` appends snapshots to a JSONL
file, flushing each line so an operator can ``tail -f`` the file while
the swarm runs.

This module is deliberately ignorant of the live plane: the swarm (or
any other driver) builds the snapshot from whatever surfaces it owns and
hands it over.  Snapshots serialize canonically (sorted keys, compact
separators) so two runs of the same seed produce diffable telemetry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO, Mapping

__all__ = ["TelemetryExporter", "TelemetrySnapshot"]


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One periodic observation of a running deployment.

    ``metrics`` is a :func:`~repro.obs.registry.metrics_snapshot`
    mapping (counters as ints, ``transport.max_in_flight`` as a float,
    the ``prop.var`` histogram as a dict).  The
    span gauges come from a streaming
    :class:`~repro.obs.spans.SpanAssembler`; the wire-byte maps from the
    transport's per-peer counters (slot -> bytes).

    ``loop_lag`` is the event-loop scheduling-lag summary from a
    :class:`~repro.live.lag.LoopLagSampler` (``mean_ms`` / ``max_ms`` /
    ``samples``); ``callback_ms`` maps peer slot -> message category ->
    cumulative handler milliseconds.  Both default empty so snapshots
    from drivers without those surfaces serialize unchanged.
    """

    time: float  # protocol seconds
    seq: int  # snapshot ordinal within the run, starting at 0
    metrics: Mapping[str, Any]
    open_spans: int = 0
    open_traces: int = 0
    spans_completed: int = 0
    wire_bytes_out: Mapping[int, int] = field(default_factory=dict)
    wire_bytes_in: Mapping[int, int] = field(default_factory=dict)
    loop_lag: Mapping[str, Any] = field(default_factory=dict)
    callback_ms: Mapping[int, Mapping[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (peer keys stringified, stable ordering)."""
        return {
            "time": round(self.time, 6),
            "seq": self.seq,
            "metrics": dict(self.metrics),
            "spans": {
                "open": self.open_spans,
                "open_traces": self.open_traces,
                "completed": self.spans_completed,
            },
            "wire_bytes": {
                "out": {str(k): self.wire_bytes_out[k]
                        for k in sorted(self.wire_bytes_out)},
                "in": {str(k): self.wire_bytes_in[k]
                       for k in sorted(self.wire_bytes_in)},
            },
            "loop_lag": {k: self.loop_lag[k] for k in sorted(self.loop_lag)},
            "callbacks": {
                str(slot): {cat: self.callback_ms[slot][cat]
                            for cat in sorted(self.callback_ms[slot])}
                for slot in sorted(self.callback_ms)
            },
        }

    def to_json_line(self) -> str:
        """Canonical single-line form (the JSONL record)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


class TelemetryExporter:
    """Append-only JSONL sink for :class:`TelemetrySnapshot` records.

    The file is created lazily on the first :meth:`write` (a run that
    never snapshots leaves nothing behind) and every line is flushed
    immediately — the whole point is that the file is readable while
    the producing run is still alive.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.written = 0
        self._fh: IO[str] | None = None

    def write(self, snapshot: TelemetrySnapshot) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write(snapshot.to_json_line() + "\n")
        self._fh.flush()
        self.written += 1

    def close(self) -> None:
        """Close the file handle (idempotent; no final record written)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

