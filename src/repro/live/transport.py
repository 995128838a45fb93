"""The :class:`~repro.net.transport.Transport` implementation over UDP.

:class:`UdpTransport` gives the message plane a real network backend:
every slot is a :class:`~repro.live.node.PeerNode` with its own loopback
socket, ``send`` encodes the message with :mod:`repro.live.codec` and
transmits it *from the source slot's socket to the destination slot's
address*, and delivery happens when the kernel hands the datagram to the
destination endpoint.  The engine sees the exact interface
:class:`~repro.net.transport.SimTransport` provides — ``stats``,
``tracer``, ``register`` / ``send`` — so
:class:`~repro.net.engine.MessagePROPEngine` runs over it unchanged.

Semantics that differ from the simulated transport, by nature of a real
stack:

* **Latency is physical.**  There is no oracle lookup on the send path;
  a loopback datagram arrives in microseconds.  Protocol timers run in
  protocol seconds (via :class:`~repro.live.clock.LiveScheduler`), so
  wire latency is effectively zero on the protocol timescale — the live
  analogue of ``latency_scale=0``.  ``extra_delay_ms`` is still honored
  (in protocol milliseconds) by deferring the transmit on the scheduler.
* **Every message is a datagram.**  Inert ``VAR_PROBE`` pings, which the
  simulated plane batches per instant, are each sent and received here.
* **Loss is real and silent.**  The kernel may drop datagrams under
  buffer pressure and nothing reports it, so ``stats.in_flight`` is an
  upper bound (a lost datagram is never ``record_delivery``-ed and the
  gauge stays high).  The engine's per-stage timeouts absorb such losses
  exactly as they absorb injected ones.
* **Decode failures are counted, not raised.**  A truncated or
  alien datagram increments ``codec_errors`` (and ``misrouted`` when a
  valid frame arrives on the wrong slot's socket) and is dropped;
  a malformed packet must never kill the event loop.  The same
  counted-never-raised contract covers handler dispatch
  (``handler_errors``) and the endpoint's datagram callback
  (``PeerNode.sink_errors``); ``tests/live/test_transport.py`` raises
  inside each and checks the next datagram is still delivered.
"""

from __future__ import annotations

import asyncio
import socket
import time

from repro.live.clock import LiveScheduler
from repro.live.codec import CodecError, decode, encode
from repro.live.node import PeerNode
from repro.net.messages import Message
from repro.net.transport import Handler, TransportStats, trace_tag
from repro.obs.events import (
    MsgDeliverEvent,
    MsgSendEvent,
    SpanEndEvent,
    SpanStartEvent,
)
from repro.obs.trace import NULL_TRACER, TracerLike

__all__ = ["UdpTransport", "udp_loopback_available"]

_MS = 1e-3  # extra_delay_ms is protocol milliseconds; scheduler speaks seconds


def udp_loopback_available(timeout: float = 1.0) -> bool:
    """Can this environment round-trip a datagram over 127.0.0.1?

    The CI smoke test and the live test suite gate on this instead of
    failing in sandboxes that forbid loopback sockets.
    """
    a = b = None
    try:
        a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        a.bind(("127.0.0.1", 0))
        b.bind(("127.0.0.1", 0))
        b.sendto(b"prop", a.getsockname())
        a.settimeout(timeout)
        data, _ = a.recvfrom(16)
        return data == b"prop"
    except OSError:
        return False
    finally:
        for s in (a, b):
            if s is not None:
                s.close()


class UdpTransport:
    """Loopback-UDP message plane: one socket per slot, kernel delivery.

    Build with :meth:`create` (endpoint binding is asynchronous); the
    instance then satisfies the :class:`~repro.net.transport.Transport`
    protocol synchronously.  All sockets share one event loop and one
    :class:`~repro.live.clock.LiveScheduler`.
    """

    def __init__(
        self,
        scheduler: LiveScheduler,
        nodes: list[PeerNode],
        *,
        tracer: TracerLike | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.nodes = nodes
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.stats = TransportStats()
        self.codec_errors = 0
        self.misrouted = 0
        self.handler_errors = 0
        self.wire_bytes_sent = 0
        #: Per-peer wire-byte counters (slot -> bytes), fed to the
        #: telemetry exporter; sent is keyed by the source slot,
        #: received by the destination slot.
        self.wire_bytes_out: dict[int, int] = {}
        self.wire_bytes_in: dict[int, int] = {}
        #: Opt-in handler timing (the swarm enables it with telemetry):
        #: slot -> message type -> cumulative handler nanoseconds.
        #: Wall-clock reads are sanctioned here (repro.live is on the D1
        #: allowlist) and never reach protocol state.
        self.profile_callbacks = False
        self.callback_ns: dict[int, dict[str, int]] = {}
        self._handlers: dict[int, Handler] = {}
        self._closed = False

    @classmethod
    async def create(
        cls,
        scheduler: LiveScheduler,
        n_slots: int,
        *,
        tracer: TracerLike | None = None,
        host: str = "127.0.0.1",
    ) -> "UdpTransport":
        """Bind one endpoint per slot and assemble the transport."""
        if n_slots <= 0:
            raise ValueError(f"n_slots must be positive, got {n_slots}")
        loop = asyncio.get_running_loop()
        transport = cls(scheduler, [], tracer=tracer)
        for slot in range(n_slots):
            transport.nodes.append(
                await PeerNode.create(loop, slot, transport._on_datagram, host=host)
            )
        return transport

    @property
    def n_slots(self) -> int:
        return len(self.nodes)

    # -- the Transport protocol -------------------------------------------

    def register(self, slot: int, handler: Handler) -> None:
        self._handlers[slot] = handler

    def send(self, msg: Message, extra_delay_ms: float = 0.0) -> None:
        """Encode ``msg`` and transmit it src-socket -> dst-address."""
        if self._closed:
            return
        self.stats.record_send(msg)
        if self.tracer.enabled:
            self.tracer.emit(MsgSendEvent, mtype=msg.type_name, src=msg.src,
                             dst=msg.dst, tag=trace_tag(msg))
            if msg.span_id >= 0:
                # open the in-flight span; real datagram loss leaves it
                # half-open, which the span analyzer reports as such
                self.tracer.emit(SpanStartEvent, trace=msg.trace_id,
                                 span=msg.span_id, parent=msg.parent_id,
                                 name=f"msg:{msg.type_name}", node=msg.src)
        if extra_delay_ms > 0.0:
            self.scheduler.schedule(extra_delay_ms * _MS, self._transmit, msg)
        else:
            self._transmit(msg)

    def _transmit(self, msg: Message) -> None:
        if self._closed:
            return
        data = encode(msg)
        self.wire_bytes_sent += len(data)
        self.wire_bytes_out[msg.src] = (
            self.wire_bytes_out.get(msg.src, 0) + len(data)
        )
        self.nodes[msg.src].sendto(data, self.nodes[msg.dst].address)

    # -- receive path ------------------------------------------------------

    def _on_datagram(self, slot: int, data: bytes) -> None:
        if self._closed:
            return
        try:
            msg = decode(data)
        except CodecError:
            self.codec_errors += 1
            return
        if msg.dst != slot:
            self.misrouted += 1
            return
        self.stats.record_delivery(msg)
        self.wire_bytes_in[slot] = self.wire_bytes_in.get(slot, 0) + len(data)
        if self.tracer.enabled:
            self.tracer.emit(MsgDeliverEvent, mtype=msg.type_name, src=msg.src,
                             dst=msg.dst, tag=trace_tag(msg))
        handler = self._handlers.get(slot)
        if handler is not None:
            started = time.perf_counter_ns() if self.profile_callbacks else 0
            # counted-never-raised: a handler failure must not unwind into
            # the datagram callback and kill the event loop
            try:
                handler(msg)
            except Exception:
                self.handler_errors += 1
            if self.profile_callbacks:
                elapsed = time.perf_counter_ns() - started
                per_slot = self.callback_ns.setdefault(slot, {})
                per_slot[msg.type_name] = per_slot.get(msg.type_name, 0) + elapsed
        # closed after the handler, mirroring SimTransport: the handler's
        # proc span is on the books before this trace can look complete
        if self.tracer.enabled and msg.span_id >= 0:
            self.tracer.emit(SpanEndEvent, trace=msg.trace_id,
                             span=msg.span_id, status="ok")

    def close(self) -> None:
        """Stop accepting traffic and close every peer socket."""
        if self._closed:
            return
        self._closed = True
        for node in self.nodes:
            node.close()
