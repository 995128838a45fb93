"""Typed trace events.

Every observable protocol decision is one frozen dataclass stamped with
the *simulation* time it happened at (wall clocks never appear here —
the trace of a run is as deterministic as the run itself, checked by
``tests/properties/test_stream_ownership.py``).
The schema is closed: :data:`EVENT_TYPES` maps every wire tag to its
class, and the JSONL form round-trips losslessly through
:func:`event_to_dict` / :func:`event_from_dict`.

Three event families:

* **protocol plane** — ``PROBE`` (a probe cycle launched),
  ``VAR_COLLECT`` (Var evaluated for a candidate pair), and the
  two-phase exchange lifecycle ``EXCHANGE_PREPARE`` /
  ``EXCHANGE_COMMIT`` / ``EXCHANGE_ABORT`` / ``EXCHANGE_TIMEOUT``.
  The analyzer invariant: every PREPARE resolves as exactly one of
  COMMIT, ABORT, or TIMEOUT (no half-open exchanges).
* **message plane** — ``MSG_SEND`` / ``MSG_DELIVER`` / ``MSG_DROP`` /
  ``MSG_TIMEOUT``; ``tag`` carries the message's exchange id or cycle
  number when it has one (``-1`` otherwise) so the analyzer can join
  message events to protocol events.
* **membership** — ``CHURN_LEAVE`` / ``CHURN_JOIN`` around each slot
  replacement.
* **causality** — ``SPAN_START`` / ``SPAN_END`` bracket one unit of
  causally attributed work (a probe cycle, one message in flight, a
  handler invocation, a timer wait).  ``trace``/``span``/``parent`` are
  the ids the wire context carries; :mod:`repro.obs.spans` reassembles
  them into trees.

Inline engines (no 2PC) emit commits with ``xid = -1``; the analyzer
treats those as instantaneous exchanges with no prepare to match.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, ClassVar, Iterable

__all__ = [
    "EVENT_TYPES",
    "ChurnJoin",
    "ChurnLeave",
    "Event",
    "ExchangeAbortEvent",
    "ExchangeCommitEvent",
    "ExchangePrepareEvent",
    "ExchangeTimeoutEvent",
    "MsgDeliverEvent",
    "MsgDropEvent",
    "MsgSendEvent",
    "MsgTimeoutEvent",
    "ProbeEvent",
    "SpanEndEvent",
    "SpanStartEvent",
    "VarCollectEvent",
    "event_from_dict",
    "event_to_dict",
    "events_from_jsonl",
    "events_to_jsonl",
    "load_trace",
]


@dataclass(frozen=True)
class Event:
    """Base trace record: something happened at simulated ``time``."""

    time: float

    #: Wire tag; concrete subclasses override.
    etype: ClassVar[str] = "EVENT"


# -- protocol plane -------------------------------------------------------


@dataclass(frozen=True)
class ProbeEvent(Event):
    """A probe cycle launched at node ``u`` (first hop ``s``)."""

    u: int
    s: int
    cycle: int

    etype: ClassVar[str] = "PROBE"


@dataclass(frozen=True)
class VarCollectEvent(Event):
    """Var evaluated for the candidate pair ``(u, v)``."""

    u: int
    v: int
    cycle: int
    var: float
    policy: str

    etype: ClassVar[str] = "VAR_COLLECT"


@dataclass(frozen=True)
class ExchangePrepareEvent(Event):
    """Two-phase exchange ``xid`` proposed by initiator ``u`` to ``v``."""

    xid: int
    u: int
    v: int
    var: float

    etype: ClassVar[str] = "EXCHANGE_PREPARE"


@dataclass(frozen=True)
class ExchangeCommitEvent(Event):
    """Exchange applied.  ``xid = -1`` for inline (non-2PC) engines."""

    xid: int
    u: int
    v: int
    var: float
    traded: int

    etype: ClassVar[str] = "EXCHANGE_COMMIT"


@dataclass(frozen=True)
class ExchangeAbortEvent(Event):
    """Exchange ``xid`` resolved as aborted (``reason`` says why)."""

    xid: int
    u: int
    v: int
    reason: str

    etype: ClassVar[str] = "EXCHANGE_ABORT"


@dataclass(frozen=True)
class ExchangeTimeoutEvent(Event):
    """Exchange ``xid`` abandoned: no vote arrived within the retries."""

    xid: int
    u: int
    v: int

    etype: ClassVar[str] = "EXCHANGE_TIMEOUT"


# -- message plane --------------------------------------------------------


@dataclass(frozen=True)
class MsgSendEvent(Event):
    """A message handed to the transport.  ``tag`` is its xid/cycle."""

    mtype: str
    src: int
    dst: int
    tag: int

    etype: ClassVar[str] = "MSG_SEND"


@dataclass(frozen=True)
class MsgDeliverEvent(Event):
    """A message delivered to its destination handler."""

    mtype: str
    src: int
    dst: int
    tag: int

    etype: ClassVar[str] = "MSG_DELIVER"


@dataclass(frozen=True)
class MsgDropEvent(Event):
    """A message that will never arrive (loss / partition)."""

    mtype: str
    src: int
    dst: int
    tag: int
    reason: str

    etype: ClassVar[str] = "MSG_DROP"


@dataclass(frozen=True)
class MsgTimeoutEvent(Event):
    """An await stage expired at ``u``: ``kind`` is ``walk`` (no
    VAR_REPLY in time) or ``vote-retry`` (PREPARE resent)."""

    kind: str
    u: int
    tag: int

    etype: ClassVar[str] = "MSG_TIMEOUT"


# -- causality ------------------------------------------------------------


@dataclass(frozen=True)
class SpanStartEvent(Event):
    """Span ``span`` of trace ``trace`` opened at node ``node``.

    ``parent`` is the causing span (``-1`` for a root); ``name``
    categorizes the work: ``cycle`` (a probe cycle root),
    ``msg:<TYPE>`` (one message in flight), ``proc:<TYPE>`` (the
    receive-side handler), or ``timer:<kind>`` (a timeout wait)."""

    trace: int
    span: int
    parent: int
    name: str
    node: int

    etype: ClassVar[str] = "SPAN_START"


@dataclass(frozen=True)
class SpanEndEvent(Event):
    """Span ``span`` of trace ``trace`` closed with ``status``
    (``ok``, ``drop``, ``fail``, ``churn``, or ``end-of-run``)."""

    trace: int
    span: int
    status: str

    etype: ClassVar[str] = "SPAN_END"


# -- membership -----------------------------------------------------------


@dataclass(frozen=True)
class ChurnLeave(Event):
    """Host ``host`` departed from overlay slot ``slot``."""

    slot: int
    host: int

    etype: ClassVar[str] = "CHURN_LEAVE"


@dataclass(frozen=True)
class ChurnJoin(Event):
    """Host ``host`` took over overlay slot ``slot``."""

    slot: int
    host: int

    etype: ClassVar[str] = "CHURN_JOIN"


#: The closed event schema: wire tag -> event class.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.etype: cls
    for cls in (
        ProbeEvent,
        VarCollectEvent,
        ExchangePrepareEvent,
        ExchangeCommitEvent,
        ExchangeAbortEvent,
        ExchangeTimeoutEvent,
        MsgSendEvent,
        MsgDeliverEvent,
        MsgDropEvent,
        MsgTimeoutEvent,
        SpanStartEvent,
        SpanEndEvent,
        ChurnLeave,
        ChurnJoin,
    )
}


# -- serialization --------------------------------------------------------


def event_to_dict(event: Event) -> dict[str, Any]:
    """JSON-ready dict: ``{"e": tag, "t": time, ...payload}``."""
    out: dict[str, Any] = {"e": event.etype, "t": event.time}
    for f in fields(event):
        if f.name != "time":
            out[f.name] = getattr(event, f.name)
    return out


def event_from_dict(data: dict[str, Any]) -> Event:
    """Inverse of :func:`event_to_dict`; raises on unknown tags."""
    payload = dict(data)
    tag = payload.pop("e", None)
    cls = EVENT_TYPES.get(str(tag))
    if cls is None:
        raise ValueError(f"unknown event tag {tag!r}")
    payload["time"] = payload.pop("t")
    return cls(**payload)


def events_to_jsonl(events: Iterable[Event]) -> str:
    """One canonical JSON object per line (sorted keys, no spaces).

    The canonical form is what the determinism tests compare
    byte-for-byte: same config + seed must yield the identical string.
    """
    lines = [
        json.dumps(event_to_dict(ev), sort_keys=True, separators=(",", ":"))
        for ev in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> list[Event]:
    """Parse a JSONL trace back into typed events (blank lines skipped);
    a line that is not an event of the schema is a ``ValueError`` naming it."""
    events: list[Event] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            events.append(event_from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno} is not a trace event: {exc!r}") from exc
    return events


def load_trace(path: str | Path) -> list[Event]:
    """Read a JSONL trace file: ``OSError`` if it cannot be read,
    ``ValueError`` naming the path if its content is not a trace."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return events_from_jsonl(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
