"""The one metrics snapshot.

The §4.3 tallies live in three dataclasses the protocol code writes
directly: :class:`~repro.core.protocol.ProtocolCounters` (probe/exchange
tallies), :class:`~repro.net.engine.NetCounters` (fault-visible
outcomes) and :class:`~repro.net.transport.TransportStats` (wire-level
sends/drops).  :func:`metrics_snapshot` reads them at reporting time
into one flat, sorted, JSON-ready namespace of dotted metric names —
``prop.*``, ``net.*``, ``transport.*`` — which run records and
``repro run``'s net table both print.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import fields
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "NET_TABLE_COLUMNS",
    "VAR_BUCKETS",
    "bucket_counts",
    "metrics_snapshot",
    "net_summary_rows",
    "percentile_from_buckets",
]

#: Fixed bucket edges for Var histograms (ms of latency-sum improvement).
VAR_BUCKETS: tuple[float, ...] = (0.0, 10.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


def bucket_counts(edges: Sequence[float], values: Iterable[float]) -> list[int]:
    """Counts per fixed bucket: ``value <= edges[i]`` lands in the first
    such bucket, anything above the last edge in a final overflow bucket.
    Fixed edges keep two runs' histograms comparable bucket for bucket."""
    counts = [0] * (len(edges) + 1)
    for value in values:
        counts[bisect_left(edges, value)] += 1
    return counts


def percentile_from_buckets(
    edges: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-th percentile (0..100) of a bucketed sample.

    Standard fixed-bucket estimation (the histogram keeps no raw
    values): find the bucket holding the target rank and interpolate
    linearly between its edges.  The estimate is clamped to the finite
    edge range — the underflow bucket reports the first edge, the
    overflow bucket the last — so it is exact only up to the bucket
    resolution, which is the price of O(buckets) memory.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q / 100.0 * total
    cum = 0.0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if cum + c >= target:
            if i == 0:
                return float(edges[0])
            if i == len(edges):
                return float(edges[-1])
            lo, hi = float(edges[i - 1]), float(edges[i])
            return lo + (hi - lo) * (target - cum) / c
        cum += c
    return float(edges[-1])


def _int_fields(prefix: str, obj: Any) -> dict[str, int]:
    """Every plain-int dataclass field of ``obj`` as ``prefix.<name>``."""
    out: dict[str, int] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, int) and not isinstance(value, bool):
            out[f"{prefix}.{f.name}"] = value
    return out


def metrics_snapshot(
    counters: Any = None, net_counters: Any = None, stats: Any = None,
    live: Mapping[str, float] | None = None,
) -> dict[str, Any]:
    """One sorted, JSON-ready view over whichever surfaces are given.

    * ``counters`` (:class:`ProtocolCounters`): its int fields as
      ``prop.*``, and a non-empty ``var_history`` as the ``prop.var``
      histogram over :data:`VAR_BUCKETS` (negative Vars fall in the
      first bucket — a failed opportunity, still an observation);
    * ``net_counters`` (:class:`NetCounters`): its int fields as ``net.*``;
    * ``stats`` (:class:`TransportStats`): totals, ``bytes_sent``,
      per-type ``sent.<T>`` / ``dropped.<T>``, ``drop_reason.<R>`` as
      ``transport.*``, and ``transport.max_in_flight`` as a float;
    * ``live`` (the live plane's, already keyed):
      :meth:`~repro.live.transport.UdpTransport.wire_counters` — codec,
      misroute and handler errors and wire bytes as ``transport.*`` —
      and :meth:`~repro.live.traffic.TrafficGenerator.metrics` —
      ``live.lookups`` and the float ``live.mean_lookup_ms``.

    Counters are ints.  The histogram is ``{"edges", "counts", "count",
    "sum"}``; its sum is accumulated left to right in ``var_history``
    order, so two runs with the same history report the same bits.
    """
    out: dict[str, Any] = {}
    if counters is not None:
        out.update(_int_fields("prop", counters))
        history = getattr(counters, "var_history", None)
        if history:
            total = 0.0
            for var in history:
                total += float(var)
            out["prop.var"] = {
                "edges": list(VAR_BUCKETS),
                "counts": bucket_counts(VAR_BUCKETS, map(float, history)),
                "count": len(history),
                "sum": total,
            }
    if net_counters is not None:
        out.update(_int_fields("net", net_counters))
    if stats is not None:
        out["transport.sent"] = int(stats.total_sent)
        out["transport.delivered"] = int(stats.total_delivered)
        out["transport.dropped"] = int(stats.total_dropped)
        out["transport.bytes_sent"] = int(stats.bytes_sent)
        out["transport.max_in_flight"] = float(stats.max_in_flight)
        for table, counts in (("sent", stats.sent), ("dropped", stats.dropped),
                              ("drop_reason", stats.drop_reasons)):
            for key, count in counts.items():
                out[f"transport.{table}.{key}"] = int(count)
    out.update(live or {})
    return dict(sorted(out.items()))


# -- the merged CLI table -------------------------------------------------

#: The pinned column set of the CLI's net-plane summary table.
NET_TABLE_COLUMNS: tuple[str, str] = ("metric", "value")


def net_summary_rows(snapshot: Mapping[str, Any]) -> list[list[Any]]:
    """Rows for the one merged net-plane table the CLI prints.

    Sourced from one :func:`metrics_snapshot`, so ``transport.*`` (wire
    telemetry) and ``net.*`` (protocol-visible fault outcomes) appear
    once each; histograms have no single-cell rendering and are skipped.
    """
    return [[name, value] for name, value in snapshot.items()
            if name.startswith(("net.", "transport."))
            and not isinstance(value, dict)]

