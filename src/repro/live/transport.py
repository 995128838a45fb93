"""The :class:`~repro.net.transport.Transport` implementation over UDP.

:class:`UdpTransport` gives the message plane a real network backend:
the whole swarm shares **one** loopback datagram endpoint, ``send``
encodes the message with :mod:`repro.live.codec` and transmits it to
that endpoint's own address, and delivery happens when the kernel hands
the datagram back and the transport dispatches it on the decoded
``dst`` slot.  Every message still crosses the kernel network stack,
never an in-process shortcut, and a swarm of any size holds one file
descriptor.  The engine sees the exact interface
:class:`~repro.net.transport.SimTransport` provides — ``stats``,
``tracer``, ``register`` / ``send`` / ``send_pings`` — so
:class:`~repro.net.engine.MessagePROPEngine` runs over it unchanged.

Semantics that differ from the simulated transport, by nature of a real
stack:

* **Latency is physical.**  There is no oracle lookup on the send path;
  a loopback datagram arrives in microseconds.  Protocol timers run in
  protocol seconds (via :class:`~repro.live.clock.LiveScheduler`), so
  wire latency is effectively zero on the protocol timescale — the live
  analogue of ``latency_scale=0``.  ``extra_delay_ms`` is still honored
  (in protocol milliseconds) by deferring the transmit on the scheduler.
* **Every message is a datagram.**  ``send_pings`` sends one
  ``VAR_PROBE`` datagram per ping, and each reaches the destination's
  handler; the simulated plane only counts them.
* **Loss is real and silent.**  The kernel may drop datagrams under
  buffer pressure and nothing reports it: a lost datagram is never
  ``record_delivery``-ed.  The engine's per-stage timeouts absorb such
  losses exactly as they absorb injected ones.
* **Close drains the socket.**  asyncio reads one datagram per loop
  iteration, so a burst can still sit in the kernel's receive queue
  when the run ends.  :meth:`UdpTransport.drain` stops all sends, then
  reads and delivers until a read finds the socket empty, within a
  short wall deadline; whatever is still queued after it is booked as
  dropped (reason ``queued_at_close``), and so is a transmit that
  ``extra_delay_ms`` still holds on the scheduler (reason
  ``unsent_at_close``).  After a drain, ``in_flight`` counts only the
  datagrams the kernel lost.
* **Failures on the receive path are counted, not raised.**  A truncated
  or alien datagram increments ``codec_errors``, a valid frame whose
  ``dst`` is not a slot of this swarm increments ``misrouted``, and any
  other exception — a raising handler or a bug on the receive path —
  increments ``handler_errors``; each is dropped, and a malformed packet
  never reaches the event loop.  ``tests/live/test_transport.py`` raises
  inside each and checks the next datagram is still delivered.  These
  three and ``wire_bytes_sent`` reach the run record as ``transport.*``
  metrics through :meth:`UdpTransport.wire_counters`.

With a :class:`~repro.obs.prof.KernelProfiler` in :attr:`UdpTransport.profiler`
each handler call is one profiled event, filed under ``deliver:<T>``
exactly as the simulator files its delivery events.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from repro.live.clock import LiveScheduler
from repro.live.codec import CodecError, decode, encode
from repro.net.messages import Message, VarProbe
from repro.net.transport import Handler, TransportStats, trace_send, trace_tag
from repro.obs.events import MsgDeliverEvent, SpanEndEvent
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prof import KernelProfiler

__all__ = ["UdpTransport", "udp_loopback_available"]

_MS = 1e-3  # extra_delay_ms is protocol milliseconds; scheduler speaks seconds
#: Wall seconds a close may spend delivering the receive queue's backlog.
_DRAIN_WALL_S = 0.5
_MAX_DATAGRAM = 65535
#: Receive buffer asked for on the swarm's one socket.  At the 212 992-byte
#: Linux default a backlog of ~300 datagrams overflows it, and the kernel
#: drops the rest (counted in ``RcvbufErrors`` of ``/proc/net/snmp``).
_RCVBUF_BYTES = 4 << 20


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


class UdpTransport(asyncio.DatagramProtocol):
    """Loopback-UDP message plane: one socket per swarm, kernel delivery.

    Build with :meth:`create` (endpoint binding is asynchronous); the
    instance then satisfies the :class:`~repro.net.transport.Transport`
    protocol synchronously, and is itself the endpoint's datagram
    protocol.  Every slot shares the socket, the event loop and one
    :class:`~repro.live.clock.LiveScheduler`.
    """

    def __init__(
        self,
        scheduler: LiveScheduler,
        n_slots: int,
        *,
        tracer: TracerLike | None = None,
    ) -> None:
        if n_slots <= 0:
            raise ValueError(f"n_slots must be positive, got {n_slots}")
        self.scheduler = scheduler
        self.n_slots = n_slots
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.stats = TransportStats()
        self.codec_errors = 0
        self.misrouted = 0
        self.handler_errors = 0
        self.wire_bytes_sent = 0
        #: The run's kernel profiler while the harness profiles it.
        self.profiler: KernelProfiler | None = None
        self._handlers: dict[int, Handler] = {}
        self._endpoint: asyncio.DatagramTransport | None = None
        #: The one socket's address: every frame is sent here.
        self.address: tuple[str, int] = ("", 0)
        self._closed = False
        self._muted = False  # set by drain(): no further sends
        #: Type name -> transmits ``extra_delay_ms`` holds on the scheduler.
        self._deferred: Counter[str] = Counter()

    @classmethod
    async def create(
        cls,
        scheduler: LiveScheduler,
        n_slots: int,
        *,
        tracer: TracerLike | None = None,
        host: str = "127.0.0.1",
    ) -> "UdpTransport":
        """Bind the swarm's endpoint and assemble the transport."""
        transport = cls(scheduler, n_slots, tracer=tracer)
        endpoint, _ = await asyncio.get_running_loop().create_datagram_endpoint(
            lambda: transport, local_addr=(host, 0)
        )
        transport._endpoint = endpoint
        # every peer's traffic queues here: ask for room for a burst (the
        # kernel caps the request at its rmem_max)
        try:
            endpoint.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF_BYTES)
        except OSError:
            pass
        sock = endpoint.get_extra_info("sockname")
        transport.address = (sock[0], sock[1])
        return transport

    # -- the Transport protocol -------------------------------------------

    def register(self, slot: int, handler: Handler) -> None:
        self._handlers[slot] = handler

    def send(self, msg: Message, extra_delay_ms: float = 0.0) -> None:
        """Encode ``msg`` and transmit it through the swarm's socket."""
        if self._muted:
            return
        self.stats.record_send(msg.type_name, msg.size_bytes())
        if self.tracer.enabled:
            # opens the in-flight span; real datagram loss leaves it
            # half-open, which the span analyzer reports as such
            trace_send(self.tracer, msg.type_name, msg.src, msg.dst, trace_tag(msg),
                       msg.trace_id, msg.span_id, msg.parent_id)
        if extra_delay_ms > 0.0:
            self._deferred[msg.type_name] += 1
            self.scheduler.schedule(extra_delay_ms * _MS, self._transmit_deferred, msg)
        else:
            self._transmit(msg)

    def send_pings(self, src: int, dsts: Sequence[int], cycle: int, *,
                   trace_id: int = -1, span_id: int = -1, parent_id: int = -1) -> None:
        """One ``VAR_PROBE`` datagram per ping, in fan-out order."""
        step = 1 if span_id >= 0 else 0
        for i, dst in enumerate(dsts):
            self.send(VarProbe(src=src, dst=dst, cycle=cycle, trace_id=trace_id,
                               span_id=span_id + step * i, parent_id=parent_id))

    def _transmit_deferred(self, msg: Message) -> None:
        if self._muted:
            return  # drain() booked it as unsent_at_close
        self._deferred[msg.type_name] -= 1
        self._transmit(msg)

    def _transmit(self, msg: Message) -> None:
        if self._muted or self._endpoint is None:
            return
        data = encode(msg)
        self.wire_bytes_sent += len(data)
        self._endpoint.sendto(data, self.address)

    # -- receive path ------------------------------------------------------

    def datagram_received(self, data: bytes, addr: tuple[str, int]) -> None:
        # counted-never-raised: an exception escaping this callback would
        # reach the loop's exception handler
        if self._closed:
            return
        try:
            self._deliver(data)
        except Exception:
            self.handler_errors += 1

    def _deliver(self, data: bytes) -> None:
        try:
            msg = decode(data)
        except CodecError:
            self.codec_errors += 1
            return
        slot = msg.dst
        if not 0 <= slot < self.n_slots:
            self.misrouted += 1
            return
        self.stats.record_delivery(msg.type_name)
        if self.tracer.enabled:
            self.tracer.emit(MsgDeliverEvent, mtype=msg.type_name, src=msg.src,
                             dst=msg.dst, tag=trace_tag(msg))
        handler = self._handlers.get(slot)
        if handler is not None:
            profiler = self.profiler
            if profiler is not None:
                profiler.begin_event()
            # a raising handler is counted here, not one frame up, so its
            # msg:* span below still closes
            try:
                handler(msg)
            except Exception:
                self.handler_errors += 1
            if profiler is not None:
                # a ``_deliver`` callback carrying the message: the
                # simulator's delivery events classify the same way
                profiler.end_event(self._deliver, (msg,))
        # closed after the handler, mirroring SimTransport: the handler's
        # proc span is on the books before this trace can look complete
        if self.tracer.enabled and msg.span_id >= 0:
            self.tracer.emit(SpanEndEvent, trace=msg.trace_id,
                             span=msg.span_id, status="ok")

    def drain(self, wall_s: float = _DRAIN_WALL_S) -> int:
        """Stop sending, then deliver what the socket still holds.

        Reads until a read finds the receive queue empty.  Datagrams read
        after ``wall_s`` wall seconds are booked as dropped instead of
        delivered; returns their number.  Handlers run as usual, but
        nothing they send goes out, so the queue only shrinks.  A transmit
        still deferred by ``extra_delay_ms`` will never go out either: it
        is booked as dropped (``unsent_at_close``) at once.
        """
        self._muted = True
        for type_name, count in self._deferred.items():
            for _ in range(count):
                self.stats.record_drop(type_name, "unsent_at_close")
        self._deferred.clear()
        if self._closed or self._endpoint is None:
            return 0
        own = self._endpoint.get_extra_info("socket")
        reader = socket.fromfd(own.fileno(), own.family, own.type)  # a dup
        reader.setblocking(False)
        deadline = time.monotonic() + wall_s
        unread = 0
        try:
            while True:
                try:
                    data = reader.recv(_MAX_DATAGRAM)
                except BlockingIOError:
                    return unread
                if time.monotonic() < deadline:
                    self.datagram_received(data, self.address)
                    continue
                unread += 1
                try:
                    self.stats.record_drop(decode(data).type_name, "queued_at_close")
                except CodecError:
                    self.codec_errors += 1
        finally:
            reader.close()

    def wire_counters(self) -> dict[str, int]:
        """What only a real wire counts, keyed as run-record metrics."""
        return {"transport.codec_errors": self.codec_errors,
                "transport.misrouted": self.misrouted,
                "transport.handler_errors": self.handler_errors,
                "transport.wire_bytes_sent": self.wire_bytes_sent}

    def close(self) -> None:
        """Stop accepting traffic and close the swarm's socket."""
        if self._closed:
            return
        self._closed = True
        self._muted = True
        if self._endpoint is not None:
            self._endpoint.close()
