"""The transport interface and the deterministic simulator transport.

:class:`Transport` is the seam between the protocol state machine and
the network: the engine registers one handler per slot and calls
:meth:`~Transport.send`; everything else (latency, loss, partitions) is
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

An :attr:`~repro.net.messages.Message.inert` message (the ``VAR_PROBE``
ping) changes nothing where it lands, so its flight time cannot be
observed by the protocol.  :class:`SimTransport` therefore records its
send as usual but delivers it in the current instant's batch: every
inert message sent at one simulated time shares one zero-delay event,
which runs the ordinary per-message delivery for each in send order.
Counts, bytes and trace records per message are unchanged; the event
count and the in-flight gauge are not.

Telemetry: :class:`TransportStats` tallies sends, deliveries, drops,
bytes and the in-flight gauge per message type; the fault decorator
records its drops here too, so one object describes the whole message
plane.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import inf
from typing import Callable, Protocol

from repro.net.messages import Message
from repro.netsim.engine import Simulator
from repro.obs.events import (
    MsgDeliverEvent,
    MsgSendEvent,
    SpanEndEvent,
    SpanStartEvent,
)
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.overlay.base import Overlay

__all__ = ["DeliveryTap", "SimTransport", "Transport", "TransportStats", "trace_tag"]

_MS = 1e-3  # latency oracle is in milliseconds; simulation time in seconds

Handler = Callable[[Message], None]
DeliveryTap = Callable[[Message], None]


@dataclass
class TransportStats:
    """Per-message telemetry for one transport.

    ``in_flight`` counts messages sent and not yet delivered or dropped.
    On :class:`SimTransport` an inert ping is delivered in the instant
    it was sent, so it never stays in flight past that instant and
    ``max_in_flight`` is lower than it would be under per-ping latency.
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

    def record_send(self, msg: Message) -> None:
        self.sent[msg.type_name] += 1
        self.bytes_sent += msg.size_bytes()
        in_flight = self.in_flight = self.in_flight + 1
        if in_flight > self.max_in_flight:
            self.max_in_flight = in_flight

    def record_delivery(self, msg: Message) -> None:
        self.delivered[msg.type_name] += 1
        self.in_flight -= 1

    def record_drop(self, msg: Message, reason: str) -> None:
        """A message that was sent but will never arrive."""
        self.dropped[msg.type_name] += 1
        self.drop_reasons[reason] += 1
        self.in_flight -= 1


def trace_tag(msg: Message) -> int:
    """The id that joins a message to its protocol event: the exchange
    ``xid`` when it has one, else the probe ``cycle``, else ``-1``."""
    tag = getattr(msg, "xid", None)
    if tag is None:
        tag = getattr(msg, "cycle", None)
    return int(tag) if tag is not None else -1


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
        Optional callback invoked *after* each delivered message's
        handler ran; the fault-safety property suite uses it to check
        invariants after every delivery.
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
        #: Inert messages sent at the current instant, in send order;
        #: ``None`` when no batch event is pending.
        self._batch: list[Message] | None = None

    def register(self, slot: int, handler: Handler) -> None:
        self._handlers[slot] = handler

    def send(self, msg: Message, extra_delay_ms: float = 0.0) -> None:
        """Deliver ``msg`` after ``d(src, dst) * scale + extra`` ms; an
        inert message goes in this instant's batch instead, whatever its
        delay (module docs)."""
        self.stats.record_send(msg)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(MsgSendEvent, mtype=msg.type_name, src=msg.src,
                        dst=msg.dst, tag=trace_tag(msg))
            if msg.span_id >= 0:
                # the in-flight span: open at send, closed at delivery
                tracer.emit(SpanStartEvent, trace=msg.trace_id,
                            span=msg.span_id, parent=msg.parent_id,
                            name=f"msg:{msg.type_name}", node=msg.src)
        if msg.inert:
            batch = self._batch
            if batch is None:
                # a zero-delay event fires before the clock moves on, so
                # a pending batch always belongs to the current instant
                batch = self._batch = []
                self.sim.schedule(0.0, self._deliver_batch, batch)
            batch.append(msg)
            return
        latency_ms = self.overlay.latency(msg.src, msg.dst) * self.latency_scale
        self.sim.schedule((latency_ms + extra_delay_ms) * _MS, self._deliver, msg)

    def _deliver_batch(self, batch: list[Message]) -> None:
        self._batch = None  # a tap that sends opens the next batch
        deliver = self._deliver
        for msg in batch:
            deliver(msg)

    def _deliver(self, msg: Message) -> None:
        self.stats.record_delivery(msg)
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
