"""The transport interface and the deterministic simulator transport.

:class:`Transport` is the seam between the protocol state machine and
the network: the engine registers one handler per slot and calls
:meth:`~Transport.send`, or :meth:`~Transport.send_pings` for a fan-out
of latency pings; everything else (latency, loss, partitions) is
the transport's business.  :class:`SimTransport` delivers through the
existing :class:`~repro.netsim.engine.Simulator` after the physical
latency ``d(src, dst)`` read from the oracle via the overlay embedding —
hosts that move (PROP-G swaps) automatically change their link
latencies, as they would in a real deployment.

``latency_scale`` exists for the determinism bridge: at ``0.0`` a
message is delivered at the same timestamp it was sent (the event queue
preserves insertion order within a timestamp), which recovers the
paper's instantaneous-cycle abstraction as a special case of the message
plane — the property the bridge integration test pins.

Pings are counted, not delivered.  A ``VAR_PROBE`` ping is
:attr:`~repro.net.messages.Message.inert`: it changes nothing where it
lands, so the protocol can observe neither its flight time nor its
delivery.  :meth:`SimTransport.send_pings` takes one side of a probe
cycle's information collection in one call and builds no message
object: the fan-out is recorded as sent (count, bytes, in-flight gauge)
at once, and as delivered by the current instant's batch event — one
zero-delay event shared by every fan-out of that simulated time.  No
handler and no tap runs for a ping.  With tracing on, every ping still
gets its own ``MSG_SEND`` / ``SPAN_START`` records at send and
``MSG_DELIVER`` / ``SPAN_END`` in the batch.  ``send`` of a
:class:`~repro.net.messages.VarProbe` takes the same path, so the
simulated plane has one way to carry a ping.  :func:`book_pings_sent`
and :func:`book_pings_delivered` write those books and records for
one fan-out; the live plane's one-datagram fan-out calls the same two,
so both planes book and trace a fan-out alike.

Telemetry: :class:`TransportStats` tallies sends, deliveries, drops,
bytes and the in-flight gauge per message type; the fault decorator
records its drops here too, so one object describes the whole message
plane.  The delivery ``tap`` sees handled deliveries only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import inf
from typing import Callable, Protocol, Sequence

from repro.net.messages import Message, VarProbe
from repro.netsim.engine import Simulator
from repro.obs.events import (
    MsgDeliverEvent,
    MsgSendEvent,
    SpanEndEvent,
    SpanStartEvent,
)
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.overlay.base import Overlay

__all__ = [
    "DeliveryTap",
    "SimTransport",
    "Transport",
    "TransportStats",
    "book_pings_delivered",
    "book_pings_sent",
    "trace_send",
    "trace_tag",
]

_MS = 1e-3  # latency oracle is in milliseconds; simulation time in seconds

_PING = VarProbe.type_name
_PING_BYTES = VarProbe(src=0, dst=0, cycle=0).size_bytes()  # fixed width

Handler = Callable[[Message], None]
DeliveryTap = Callable[[Message], None]


@dataclass
class TransportStats:
    """Per-message telemetry for one transport.

    ``in_flight`` counts messages sent and not yet delivered or dropped.
    On :class:`SimTransport` a ping is delivered in the instant it was
    sent, so it never stays in flight past that instant and
    ``max_in_flight`` is lower than it would be under per-ping latency.
    The ``record_*`` methods take a type name and a count, so a fan-out
    of pings is booked without a message object per ping.
    """

    sent: Counter[str] = field(default_factory=Counter)  # type -> count
    delivered: Counter[str] = field(default_factory=Counter)
    dropped: Counter[str] = field(default_factory=Counter)
    drop_reasons: Counter[str] = field(default_factory=Counter)  # reason -> count
    bytes_sent: int = 0
    in_flight: int = 0
    max_in_flight: int = 0

    @property
    def total_sent(self) -> int:
        return sum(self.sent.values())

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered.values())

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    def record_send(self, type_name: str, size_bytes: int, count: int = 1) -> None:
        """``count`` messages of ``size_bytes`` each, sent back to back."""
        self.sent[type_name] += count
        self.bytes_sent += size_bytes * count
        in_flight = self.in_flight = self.in_flight + count
        if in_flight > self.max_in_flight:
            self.max_in_flight = in_flight

    def record_delivery(self, type_name: str, count: int = 1) -> None:
        self.delivered[type_name] += count
        self.in_flight -= count

    def record_drop(self, type_name: str, reason: str, count: int = 1) -> None:
        """``count`` messages that were sent but will never arrive."""
        self.dropped[type_name] += count
        self.drop_reasons[reason] += count
        self.in_flight -= count


def trace_tag(msg: Message) -> int:
    """The id that joins a message to its protocol event: the exchange
    ``xid`` when it has one, else the probe ``cycle``, else ``-1``."""
    tag = getattr(msg, "xid", None)
    if tag is None:
        tag = getattr(msg, "cycle", None)
    return int(tag) if tag is not None else -1


def trace_send(tracer: TracerLike, mtype: str, src: int, dst: int, tag: int,
               trace_id: int, span_id: int, parent_id: int) -> None:
    """The send-side records of one message: ``MSG_SEND``, then the
    open of its in-flight ``msg:<TYPE>`` span when it has one."""
    tracer.emit(MsgSendEvent, mtype=mtype, src=src, dst=dst, tag=tag)
    if span_id >= 0:
        tracer.emit(SpanStartEvent, trace=trace_id, span=span_id, parent=parent_id,
                    name=f"msg:{mtype}", node=src)


def book_pings_sent(stats: TransportStats, tracer: TracerLike, src: int,
                    dsts: Sequence[int], cycle: int, trace_id: int, span_id: int,
                    parent_id: int) -> None:
    """The send side of one ping fan-out: ``len(dsts)`` ``VAR_PROBE``
    sends and, traced, each ping's :func:`trace_send` records, the
    ``i``-th with span id ``span_id + i`` (``-1`` throughout when
    ``span_id`` is)."""
    stats.record_send(_PING, _PING_BYTES, len(dsts))
    if tracer.enabled:
        step = 1 if span_id >= 0 else 0
        for i, dst in enumerate(dsts):
            trace_send(tracer, _PING, src, dst, cycle, trace_id, span_id + step * i,
                       parent_id)


def book_pings_delivered(stats: TransportStats, tracer: TracerLike, src: int,
                         dsts: Sequence[int], cycle: int, trace_id: int,
                         span_id: int) -> None:
    """The receipt of one ping fan-out: ``len(dsts)`` ``VAR_PROBE``
    deliveries and, traced, each ping's ``MSG_DELIVER`` and the
    ``SPAN_END`` of the span :func:`book_pings_sent` opened for it."""
    stats.record_delivery(_PING, len(dsts))
    if tracer.enabled:
        for dst in dsts:
            tracer.emit(MsgDeliverEvent, mtype=_PING, src=src, dst=dst, tag=cycle)
            if span_id >= 0:
                tracer.emit(SpanEndEvent, trace=trace_id, span=span_id, status="ok")
                span_id += 1


class Transport(Protocol):
    """What the protocol engine needs from a message plane."""

    stats: TransportStats
    tracer: TracerLike

    def register(self, slot: int, handler: Handler) -> None:
        """Install the receive handler for ``slot``; messages to a slot
        without one are counted as delivered and otherwise absorbed."""
        ...  # pragma: no cover - protocol signature

    def send(self, msg: Message, extra_delay_ms: float = 0.0) -> None:
        """Queue ``msg`` for delivery to ``msg.dst``'s handler.

        Never delivers before returning: the handler runs in a later
        event (or datagram callback), never re-entrantly inside ``send``.
        """
        ...  # pragma: no cover - protocol signature

    def send_pings(self, src: int, dsts: Sequence[int], cycle: int, *,
                   trace_id: int = -1, span_id: int = -1, parent_id: int = -1) -> None:
        """Ping each of ``dsts`` from ``src``: one side of probe cycle
        ``cycle``'s information collection, one ``VAR_PROBE`` per slot.

        Carries what ``send(VarProbe(src=src, dst=d, cycle=cycle, ...))``
        would for each ``d`` in order, the ``i``-th ping taking span id
        ``span_id + i`` (all stay ``-1`` when ``span_id`` is), except
        that the receiver does nothing with a ping, so a transport may
        leave its flight time unmodelled and carry the whole fan-out in
        one frame.  Either way it books ``len(dsts)`` ``VAR_PROBE``
        messages (:func:`book_pings_sent`, :func:`book_pings_delivered`).
        """
        ...  # pragma: no cover - protocol signature


class SimTransport:
    """Deterministic transport over the discrete-event simulator.

    Parameters
    ----------
    sim:
        The simulator that owns time.
    overlay:
        Supplies ``latency(src, dst)`` (ms) through its embedding.
    latency_scale:
        Multiplier on the physical latency; ``0.0`` delivers at the
        send timestamp (insertion order preserved — the determinism
        bridge), ``1.0`` is the oracle latency.
    tap:
        Optional callback invoked *after* each handled message's
        handler ran (pings are not handled, module docs); the
        fault-safety property suite uses it to check invariants after
        every delivery that can change state.
    tracer:
        Event sink for ``MSG_SEND`` / ``MSG_DELIVER`` records; defaults
        to the zero-cost :data:`~repro.obs.trace.NULL_TRACER`.
    """

    def __init__(
        self,
        sim: Simulator,
        overlay: Overlay,
        *,
        latency_scale: float = 1.0,
        tap: DeliveryTap | None = None,
        tracer: TracerLike | None = None,
    ) -> None:
        if not 0.0 <= latency_scale < inf:
            raise ValueError(f"latency_scale must be finite and >= 0, got {latency_scale}")
        self.sim = sim
        self.overlay = overlay
        self.latency_scale = float(latency_scale)
        self.tap = tap
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.stats = TransportStats()
        self._handlers: dict[int, Handler] = {}
        #: The ping fan-outs sent at the current instant, in send order,
        #: as ``(src, dsts, cycle, trace_id, first span id)``; ``None``
        #: when no batch event is pending.
        self._batch: list[tuple[int, Sequence[int], int, int, int]] | None = None

    def register(self, slot: int, handler: Handler) -> None:
        self._handlers[slot] = handler

    def send(self, msg: Message, extra_delay_ms: float = 0.0) -> None:
        """Deliver ``msg`` after ``d(src, dst) * scale + extra`` ms; a
        ping (the inert type) is counted by :meth:`send_pings` instead."""
        if msg.inert:
            self.send_pings(msg.src, (msg.dst,), trace_tag(msg), trace_id=msg.trace_id,
                            span_id=msg.span_id, parent_id=msg.parent_id)
            return
        self.stats.record_send(msg.type_name, msg.size_bytes())
        if self.tracer.enabled:
            trace_send(self.tracer, msg.type_name, msg.src, msg.dst, trace_tag(msg),
                       msg.trace_id, msg.span_id, msg.parent_id)
        latency_ms = self.overlay.latency(msg.src, msg.dst) * self.latency_scale
        # a delivery is never cancelled, so it needs no event handle
        self.sim.post((latency_ms + extra_delay_ms) * _MS, self._deliver, msg)

    def send_pings(self, src: int, dsts: Sequence[int], cycle: int, *,
                   trace_id: int = -1, span_id: int = -1, parent_id: int = -1) -> None:
        """Book the fan-out as sent now and delivered in this instant's
        batch event (module docs)."""
        if not dsts:
            return
        book_pings_sent(self.stats, self.tracer, src, dsts, cycle, trace_id, span_id,
                        parent_id)
        batch = self._batch
        if batch is None:
            # a zero-delay event fires before the clock moves on, so a
            # pending batch always belongs to the current instant
            batch = self._batch = []
            self.sim.post(0.0, self._deliver_pings, batch)
        batch.append((src, dsts, cycle, trace_id, span_id))

    def _deliver_pings(self, batch: list[tuple[int, Sequence[int], int, int, int]]) -> None:
        self._batch = None  # a later fan-out at this instant opens the next batch
        stats = self.stats
        tracer = self.tracer
        for src, dsts, cycle, trace_id, span_id in batch:
            book_pings_delivered(stats, tracer, src, dsts, cycle, trace_id, span_id)

    def _deliver(self, msg: Message) -> None:
        self.stats.record_delivery(msg.type_name)
        tracer = self.tracer
        tracing = tracer.enabled
        if tracing:
            tracer.emit(MsgDeliverEvent, mtype=msg.type_name, src=msg.src,
                        dst=msg.dst, tag=trace_tag(msg))
        handler = self._handlers.get(msg.dst)
        if handler is not None:
            handler(msg)
        # the message span closes after the handler consumed it, so the
        # handler's own proc span is on the books before a span-tree
        # assembler can see this trace's open-span count reach zero
        if tracing and msg.span_id >= 0:
            tracer.emit(SpanEndEvent, trace=msg.trace_id,
                        span=msg.span_id, status="ok")
        if self.tap is not None:
            self.tap(msg)
