"""The :class:`~repro.net.transport.Transport` implementation over UDP.

:class:`UdpTransport` gives the message plane a real network backend:
the whole swarm shares **one** loopback datagram socket, ``send``
encodes the message with :mod:`repro.live.codec` and transmits it to
that socket's own address, and delivery happens when the kernel hands
the datagram back and the transport dispatches it on the decoded
``dst`` slot.  Every message still crosses the kernel network stack,
never an in-process shortcut, and a swarm of any size holds one file
descriptor.  The engine sees the exact interface
:class:`~repro.net.transport.SimTransport` provides — ``stats``,
``tracer``, ``register`` / ``send`` / ``send_pings`` — so
:class:`~repro.net.engine.MessagePROPEngine` runs over it unchanged.

**The transport owns its socket.**  It binds one non-blocking socket
and registers one reader on the event loop (``loop.add_reader``), so it
needs a selector event loop — asyncio's default on Linux and macOS.
Each wakeup receives and delivers datagrams until the socket reports
``EAGAIN`` or :data:`READS_PER_WAKEUP` have been read; the cap hands
the loop back during a long burst, so timers that fall due in it run
between two batches.  A burst therefore costs one loop iteration per
batch, not one per datagram as asyncio's datagram transport charges.
``send`` calls ``sendto`` directly: a loopback send hands its buffer to
the receive queue at once, so no writer queue is kept.

Semantics that differ from the simulated transport, by nature of a real
stack:

* **Latency is physical.**  There is no oracle lookup on the send path;
  a loopback datagram arrives in microseconds.  Protocol timers run in
  protocol seconds (via :class:`~repro.live.clock.LiveScheduler`), so
  wire latency is effectively zero on the protocol timescale — the live
  analogue of ``latency_scale=0``.  ``extra_delay_ms`` is still honored
  (in protocol milliseconds) by deferring the transmit on the scheduler.
* **A ping fan-out is one datagram.**  ``send`` transmits one datagram
  per message, and each reaches its destination's handler.
  ``send_pings`` transmits one side's whole fan-out as one
  :class:`~repro.net.messages.PingFanout` frame, booked as ``len(dsts)``
  ``VAR_PROBE`` sends.  Its receipt (:meth:`UdpTransport._deliver_pings`)
  runs no handler — a ping is inert — and books ``len(dsts)`` deliveries
  with the same trace records the simulated plane's batch writes
  (:func:`~repro.net.transport.book_pings_delivered`).  So ``stats``
  counts messages, as on the simulated plane, and ``datagrams_sent``
  counts datagrams.
* **Loss is real, and booked where it can be seen.**  A ``sendto`` that
  fails (any ``OSError``, ``EAGAIN`` included) is booked as dropped
  (reason ``send_error``; a fan-out as ``len(dsts)`` ``VAR_PROBE``
  drops, as it is at close).  The kernel may also drop datagrams under
  receive-buffer pressure: those are never ``record_delivery``-ed, and
  the engine's per-stage timeouts absorb them exactly as they absorb
  injected losses.
* **Close drains the socket and closes the books.**
  :meth:`UdpTransport.drain` stops all sends, then runs the same read
  loop until a read finds the socket empty, within a short wall
  deadline; whatever is still queued after it is booked as dropped
  (reason ``queued_at_close``), and so is a transmit that
  ``extra_delay_ms`` still holds on the scheduler (reason
  ``unsent_at_close``).  It then reads the kernel's own count of the
  datagrams it dropped on the socket (the ``drops`` column of
  ``/proc/net/udp``), so that after a drain
  ``datagrams_sent == datagrams_read + kernel_drops`` holds exactly.
  In messages, ``sent == delivered + dropped`` holds exactly when the
  kernel dropped nothing; each datagram it dropped carried at least one
  message, so otherwise ``sent - delivered - dropped >= kernel_drops``.
* **Failures on the receive path are counted, not raised.**  A truncated
  or alien datagram increments ``codec_errors``, a valid frame whose
  ``dst`` is not a slot of this swarm increments ``misrouted``, and any
  other exception — a raising handler or a bug on the receive path —
  increments ``handler_errors``; each is dropped, and a malformed packet
  never reaches the event loop.  A fan-out naming a slot outside the
  swarm is ``misrouted`` whole.  ``tests/live/test_transport.py`` raises
  inside each and checks the next datagram is still delivered.  These
  three, the datagram counts, ``wire_bytes_sent`` and ``kernel_drops``
  reach the run record as ``transport.*`` metrics through
  :meth:`UdpTransport.wire_counters`.

With a :class:`~repro.obs.prof.KernelProfiler` in :attr:`UdpTransport.profiler`
each handler call is one profiled event, filed under ``deliver:<T>``
exactly as the simulator files its delivery events; a fan-out's receipt
is one ``deliver:VAR_PROBE`` event, as the simulator's ping batch is.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
from collections import Counter
from typing import TYPE_CHECKING, Callable, Sequence

from repro.live.clock import LiveScheduler
from repro.live.codec import CodecError, decode, encode
from repro.net.messages import Message, PingFanout, VarProbe
from repro.net.transport import (
    Handler,
    TransportStats,
    book_pings_delivered,
    book_pings_sent,
    trace_send,
    trace_tag,
)
from repro.obs.events import MsgDeliverEvent, SpanEndEvent
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prof import KernelProfiler

__all__ = ["READS_PER_WAKEUP", "UdpTransport", "udp_loopback_available"]

_MS = 1e-3  # extra_delay_ms is protocol milliseconds; scheduler speaks seconds
#: Datagrams one reader wakeup receives at most before it hands the loop
#: back, so timers due during a burst run between two batches.
READS_PER_WAKEUP = 64
#: Wall seconds a close may spend delivering the receive queue's backlog.
_DRAIN_WALL_S = 0.5
_MAX_DATAGRAM = 65535
#: Receive buffer asked for on the swarm's one socket.  At the 212 992-byte
#: Linux default a backlog of ~300 datagrams overflows it, and the kernel
#: drops the rest (counted in ``RcvbufErrors`` of ``/proc/net/snmp``).
_RCVBUF_BYTES = 4 << 20
_PING = VarProbe.type_name


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


def _booked_as(msg: Message) -> tuple[str, int]:
    """The type and number of messages a frame is booked as: a fan-out
    is its pings."""
    if type(msg) is PingFanout:
        return _PING, len(msg.dsts)
    return msg.type_name, 1


def _socket_drops(sock: socket.socket) -> int | None:
    """Datagrams the kernel dropped on ``sock``: the ``drops`` column of
    its row in ``/proc/net/udp`` (``udp6`` for IPv6), found by the
    socket's inode.  ``None`` where that table cannot be read."""
    inode = str(os.fstat(sock.fileno()).st_ino)
    table = "/proc/net/udp6" if sock.family == socket.AF_INET6 else "/proc/net/udp"
    try:
        with open(table) as rows:
            next(rows)  # the header line
            for row in rows:
                fields = row.split()
                if fields[9] == inode:
                    return int(fields[12])
    except (OSError, StopIteration, IndexError, ValueError):
        pass
    return None


class UdpTransport:
    """Loopback-UDP message plane: one socket per swarm, kernel delivery.

    Build with :meth:`create` (binding is asynchronous); the instance
    then satisfies the :class:`~repro.net.transport.Transport` protocol
    synchronously.  Every slot shares the socket, the event loop's one
    reader on it and one :class:`~repro.live.clock.LiveScheduler`.
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
        #: Datagrams ``sendto`` took, and datagrams read off the socket.
        self.datagrams_sent = 0
        self.datagrams_read = 0
        #: The kernel's drops on the socket, read by :meth:`drain`;
        #: ``None`` until then, and where ``/proc/net/udp`` is unreadable.
        self.kernel_drops: int | None = None
        #: The run's kernel profiler while the harness profiles it.
        self.profiler: KernelProfiler | None = None
        self._handlers: dict[int, Handler] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._sock: socket.socket | None = None
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
        """Bind the swarm's socket and register its reader on the loop."""
        transport = cls(scheduler, n_slots, tracer=tracer)
        loop = asyncio.get_running_loop()
        # resolved in place: a numeric host (the loopback default) costs
        # no lookup, and no executor thread is started for it
        family, _, _, _, addr = socket.getaddrinfo(host, 0, type=socket.SOCK_DGRAM)[0]
        sock = socket.socket(family, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            # every peer's traffic queues here: ask for room for a burst
            # (the kernel caps the request at its rmem_max)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF_BYTES)
            except OSError:
                pass
            sock.bind(addr)
            loop.add_reader(sock.fileno(), transport._read_ready)
        except BaseException:
            sock.close()
            raise
        transport._loop, transport._sock = loop, sock
        name = sock.getsockname()
        transport.address = (name[0], name[1])
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
        """The fan-out as one ``PING_FANOUT`` datagram, booked as
        ``len(dsts)`` ``VAR_PROBE`` sends; an empty one sends nothing."""
        if self._muted or not dsts:
            return
        book_pings_sent(self.stats, self.tracer, src, dsts, cycle, trace_id, span_id,
                        parent_id)
        self._transmit(PingFanout(src=src, dst=-1, cycle=cycle, dsts=tuple(dsts),
                                  trace_id=trace_id, span_id=span_id, parent_id=parent_id))

    def _transmit_deferred(self, msg: Message) -> None:
        if self._muted:
            return  # drain() booked it as unsent_at_close
        self._deferred[msg.type_name] -= 1
        self._transmit(msg)

    def _transmit(self, msg: Message) -> None:
        if self._muted or self._sock is None:
            return
        data = encode(msg)
        try:
            self._sock.sendto(data, self.address)
        except OSError:
            # EAGAIN included: a datagram the kernel refused never arrives
            type_name, count = _booked_as(msg)
            self.stats.record_drop(type_name, "send_error", count)
            return
        self.datagrams_sent += 1
        self.wire_bytes_sent += len(data)

    # -- receive path ------------------------------------------------------

    def _read_ready(self) -> None:
        """The loop's reader: one batch of datagrams per wakeup."""
        self._read(READS_PER_WAKEUP, self._receive)

    def _read(self, limit: int, take: Callable[[bytes], None]) -> int:
        """Hand up to ``limit`` received datagrams to ``take``; returns
        how many were read, fewer than ``limit`` once the socket is empty."""
        assert self._sock is not None  # bound by create(), before the reader
        recv = self._sock.recv
        for i in range(limit):
            try:
                data = recv(_MAX_DATAGRAM)
            except OSError:  # BlockingIOError: the queue is empty
                return i
            self.datagrams_read += 1
            take(data)
        return limit

    def _receive(self, data: bytes) -> None:
        # counted-never-raised: an exception escaping the reader would
        # reach the loop's exception handler
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
        if type(msg) is PingFanout:
            self._deliver_pings(msg)
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

    def _deliver_pings(self, frame: PingFanout) -> None:
        """Book a received fan-out as its pings' deliveries.  No handler
        runs: a ping is inert, so the engine's dispatch entry is ``None``."""
        dsts = frame.dsts
        if not dsts or min(dsts) < 0 or max(dsts) >= self.n_slots:
            self.misrouted += 1
            return
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_event()
        book_pings_delivered(self.stats, self.tracer, frame.src, dsts, frame.cycle,
                             frame.trace_id, frame.span_id)
        if profiler is not None:
            # filed by this method's name, as the simulator's ping batch is
            profiler.end_event(self._deliver_pings, (frame,))

    def drain(self, wall_s: float = _DRAIN_WALL_S) -> int:
        """Stop sending, then deliver what the socket still holds.

        Runs the reader's read loop until a read finds the receive queue
        empty.  Datagrams read after ``wall_s`` wall seconds are booked
        as dropped (``queued_at_close``) instead of delivered; returns
        their number.  Handlers run as usual, but nothing they send goes
        out, so the queue only shrinks.  A transmit still deferred by
        ``extra_delay_ms`` will never go out either: it is booked as
        dropped (``unsent_at_close``) at once.  Last, the kernel's drop
        count on the socket is read into :attr:`kernel_drops`.
        """
        self._muted = True
        for type_name, count in self._deferred.items():
            for _ in range(count):
                self.stats.record_drop(type_name, "unsent_at_close")
        self._deferred.clear()
        if self._closed or self._sock is None:
            return 0
        deadline = time.monotonic() + wall_s
        unread = 0
        while True:
            late = time.monotonic() >= deadline
            got = self._read(READS_PER_WAKEUP, self._book_unread if late else self._receive)
            if late:
                unread += got
            if got < READS_PER_WAKEUP:
                break
        self.kernel_drops = _socket_drops(self._sock)
        return unread

    def _book_unread(self, data: bytes) -> None:
        try:
            type_name, count = _booked_as(decode(data))
        except CodecError:
            self.codec_errors += 1
            return
        self.stats.record_drop(type_name, "queued_at_close", count)

    def wire_counters(self) -> dict[str, int]:
        """What only a real wire counts, keyed as run-record metrics;
        ``transport.kernel_drops`` once :meth:`drain` could read it."""
        counters = {"transport.codec_errors": self.codec_errors,
                    "transport.misrouted": self.misrouted,
                    "transport.handler_errors": self.handler_errors,
                    "transport.wire_bytes_sent": self.wire_bytes_sent,
                    "transport.datagrams_sent": self.datagrams_sent,
                    "transport.datagrams_read": self.datagrams_read}
        if self.kernel_drops is not None:
            counters["transport.kernel_drops"] = self.kernel_drops
        return counters

    def close(self) -> None:
        """Stop reading, then close the swarm's socket."""
        if self._closed:
            return
        self._closed = True
        self._muted = True
        if self._sock is not None:
            assert self._loop is not None
            self._loop.remove_reader(self._sock.fileno())
            self._sock.close()
