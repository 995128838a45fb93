"""Transport parity across every backend, and UDP-specific delivery
semantics.

The parity class drives the same register → deliver → absorb scenario
through all three Transport implementations — :class:`SimTransport`,
:class:`FaultyTransport` and :class:`UdpTransport` — asserting identical
protocol-visible behavior: a registered slot's handler runs, and a slot
with no registered handler absorbs messages (delivery still counted, no
handler called).  The UDP semantics class attacks the swarm's one
datagram endpoint.  UDP cases are skipped where loopback sockets are
unavailable.
"""

from __future__ import annotations

import asyncio
import errno
import math
import socket

import numpy as np
import pytest

from repro.live.clock import LiveScheduler
from repro.live.codec import WIRE_VERSION, decode, encode
from repro.live.transport import (
    READS_PER_WAKEUP,
    UdpTransport,
    _socket_drops,
    udp_loopback_available,
)
from repro.net.faults import FaultyTransport
from repro.net.messages import Notify, PingFanout, VarProbe
from repro.net.transport import SimTransport, Transport
from repro.netsim.engine import Simulator
from repro.obs.events import MsgDeliverEvent, MsgSendEvent, SpanEndEvent, SpanStartEvent
from repro.obs.prof import KernelProfiler
from repro.obs.trace import Tracer

LOOPBACK = udp_loopback_available()
needs_loopback = pytest.mark.skipif(
    not LOOPBACK, reason="loopback UDP unavailable in this environment"
)


class Scenario:
    """register a handler on ``slot``, send one handled message to slot
    1, report (handler calls, stats)."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.msg = Notify(src=0, dst=1, xid=7, commit=False)

    def drive_sim(self, overlay, wrap_faulty: bool):
        sim = Simulator()
        transport: Transport = SimTransport(sim, overlay)
        if wrap_faulty:
            transport = FaultyTransport(transport, np.random.default_rng(0))
        seen: list = []
        transport.register(self.slot, seen.append)
        transport.send(self.msg)
        sim.run()
        return seen, transport.stats

    def drive_udp(self):
        async def body():
            loop = asyncio.get_running_loop()
            sched = LiveScheduler(loop, speedup=60.0)
            transport = await UdpTransport.create(sched, 2)
            try:
                seen: list = []
                transport.register(self.slot, seen.append)
                transport.send(self.msg)
                deadline = loop.time() + 2.0
                while loop.time() < deadline and transport.stats.total_delivered < 1:
                    await asyncio.sleep(0.005)
                await asyncio.sleep(0.02)  # absorb any stray duplicate work
                return seen, transport.stats
            finally:
                transport.close()

        return asyncio.run(body())


class TestUnregisterParity:
    """The same scenario behaves identically on every backend."""

    @pytest.mark.parametrize("backend", ["sim", "faulty", "udp"])
    def test_registered_slot_receives(self, backend, gnutella):
        scenario = Scenario(slot=1)
        if backend == "udp":
            if not LOOPBACK:
                pytest.skip("loopback UDP unavailable")
            seen, stats = scenario.drive_udp()
        else:
            seen, stats = scenario.drive_sim(gnutella, wrap_faulty=backend == "faulty")
        assert seen == [scenario.msg]
        assert stats.sent["NOTIFY"] == stats.delivered["NOTIFY"] == 1

    @pytest.mark.parametrize("backend", ["sim", "faulty", "udp"])
    def test_unregistered_slot_absorbs(self, backend, gnutella):
        scenario = Scenario(slot=0)
        if backend == "udp":
            if not LOOPBACK:
                pytest.skip("loopback UDP unavailable")
            seen, stats = scenario.drive_udp()
        else:
            seen, stats = scenario.drive_sim(gnutella, wrap_faulty=backend == "faulty")
        assert seen == []  # no handler on slot 1: message absorbed silently
        assert stats.delivered["NOTIFY"] == 1  # ... but delivery is counted

    def test_every_backend_satisfies_the_protocol_surface(self):
        for cls in (SimTransport, FaultyTransport, UdpTransport):
            for name in ("register", "send", "send_pings"):
                assert callable(getattr(cls, name)), f"{cls.__name__}.{name}"


def _inject(address: tuple[str, int], data: bytes) -> None:
    """Send one raw datagram to the swarm's socket from a foreign one."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.sendto(data, address)


@needs_loopback
class TestUdpSemantics:
    """Behavior specific to the real datagram path: the swarm's one
    endpoint counts every hostile datagram and keeps delivering."""

    @staticmethod
    def _survives(hostile: bytes, handler=None, tracer=None):
        """Inject ``hostile``, then send one valid probe (cycle 2) to slot 1.

        Returns the closed transport, the cycles slot 1's handler saw,
        and whatever reached the loop's exception handler.
        """
        async def body():
            loop = asyncio.get_running_loop()
            escaped: list = []
            loop.set_exception_handler(lambda _loop, ctx: escaped.append(ctx))
            transport = await UdpTransport.create(LiveScheduler(loop), 2, tracer=tracer)
            seen: list = []

            def on_message(msg):
                seen.append(msg.cycle)
                if handler is not None:
                    handler(msg)

            transport.register(1, on_message)
            try:
                _inject(transport.address, hostile)
                transport.send(VarProbe(src=0, dst=1, cycle=2))
                deadline = loop.time() + 2.0
                while loop.time() < deadline and 2 not in seen:
                    await asyncio.sleep(0.005)
                return transport, seen, escaped
            finally:
                transport.close()

        return asyncio.run(body())

    def test_garbage_datagram_counted_not_raised(self):
        transport, seen, escaped = self._survives(b"not a frame")
        assert transport.codec_errors == transport.stats.total_delivered == 1
        assert seen == [2]  # the next datagram was still delivered
        assert escaped == []

    def test_misrouted_frame_counted_and_dropped(self):
        # a valid frame whose dst names no slot of this two-slot swarm
        stray = encode(VarProbe(src=0, dst=2, cycle=1))
        transport, seen, escaped = self._survives(stray)
        assert transport.misrouted == transport.stats.total_delivered == 1
        assert seen == [2]
        assert escaped == []

    def test_raising_sink_counted_not_raised(self, monkeypatch):
        """A non-CodecError raised on the receive path, before dispatch."""
        def flaky_decode(data):
            if data == b"boom":
                raise RuntimeError("receive-path bug")
            return decode(data)

        monkeypatch.setattr("repro.live.transport.decode", flaky_decode)
        transport, seen, escaped = self._survives(b"boom")
        assert (transport.handler_errors, transport.codec_errors) == (1, 0)
        assert seen == [2]
        assert escaped == []

    def test_raising_handler_counted_not_raised(self):
        def handler(msg):
            if msg.cycle == 1:
                raise RuntimeError("handler bug")

        transport, seen, escaped = self._survives(
            encode(VarProbe(src=0, dst=1, cycle=1)), handler)
        assert transport.handler_errors == 1
        assert seen == [1, 2]  # the loop survived: the next datagram arrived
        assert escaped == []  # nothing reached the loop's exception handler

    def test_raising_handler_still_closes_its_span(self):
        def handler(msg):
            raise RuntimeError("handler bug")

        tracer = Tracer()
        spanned = VarProbe(src=0, dst=1, cycle=1, trace_id=7, span_id=70, parent_id=-1)
        transport, seen, _ = self._survives(encode(spanned), handler, tracer)
        assert seen == [1, 2] and transport.handler_errors == 2
        ends = [e for e in tracer.events if isinstance(e, SpanEndEvent)]
        assert [(e.trace, e.span, e.status) for e in ends] == [(7, 70, "ok")]

    def test_extra_delay_defers_transmit_on_the_scheduler(self):
        async def body():
            loop = asyncio.get_running_loop()
            sched = LiveScheduler(loop, speedup=1000.0)
            transport = await UdpTransport.create(sched, 2)
            try:
                got_at: list[float] = []
                transport.register(1, lambda m: got_at.append(sched.now))
                # 5000 protocol ms = 5 protocol s = 5 ms wall at 1000x
                transport.send(VarProbe(src=0, dst=1, cycle=1), extra_delay_ms=5000.0)
                deadline = loop.time() + 2.0
                while loop.time() < deadline and not got_at:
                    await asyncio.sleep(0.005)
                return got_at
            finally:
                transport.close()

        got_at = asyncio.run(body())
        assert got_at and got_at[0] >= 5.0

    @staticmethod
    def _fan_out(dsts, *, tracer=None, profiler=None):
        """``send_pings(0, dsts, 5)`` with span ids from 8, on a three-slot
        swarm whose handlers log every message; returns the closed
        transport, the handler log and the ``sendto`` payloads."""
        class Counted:
            def __init__(self, sock):
                self.sock, self.sent = sock, []

            def sendto(self, data, address):
                self.sent.append(data)
                return self.sock.sendto(data, address)

            def __getattr__(self, name):
                return getattr(self.sock, name)

        async def body():
            loop = asyncio.get_running_loop()
            transport = await UdpTransport.create(LiveScheduler(loop), 3, tracer=tracer)
            transport.profiler = profiler
            wire = transport._sock = Counted(transport._sock)
            try:
                seen: list = []
                for slot in range(3):
                    transport.register(slot, seen.append)
                transport.send_pings(0, dsts, 5, trace_id=2, span_id=8, parent_id=1)
                transport.send(Notify(src=0, dst=1, xid=1, commit=False))  # a marker
                deadline = loop.time() + 2.0
                while loop.time() < deadline and not seen:
                    await asyncio.sleep(0.005)
                return transport, seen, wire.sent
            finally:
                transport._sock = wire.sock
                transport.close()

        return asyncio.run(body())

    def test_a_ping_fanout_is_one_datagram_booked_per_ping(self):
        profiler = KernelProfiler()
        transport, seen, wire = self._fan_out((1, 2, 1), profiler=profiler)
        fanout = PingFanout(src=0, dst=-1, cycle=5, dsts=(1, 2, 1), trace_id=2, span_id=8,
                            parent_id=1)
        assert wire[0] == encode(fanout) and len(wire) == 2  # the fan-out, the marker
        assert (transport.datagrams_sent, transport.datagrams_read) == (2, 2)
        stats = transport.stats
        assert stats.sent["VAR_PROBE"] == stats.delivered["VAR_PROBE"] == 3
        assert stats.bytes_sent - Notify(src=0, dst=1, xid=1, commit=False).size_bytes() \
            == 3 * VarProbe(src=0, dst=1, cycle=5).size_bytes()
        assert "PING_FANOUT" not in stats.sent and stats.in_flight == 0
        assert [m.type_name for m in seen] == ["NOTIFY"]  # no handler ran for a ping
        # one profiled event per fan-out, filed as the simulator files its batch
        assert profiler.category_counts == {"deliver:VAR_PROBE": 1, "deliver:NOTIFY": 1}

    def test_a_traced_fanout_writes_the_records_of_each_ping(self):
        tracer = Tracer()
        self._fan_out((1, 2, 1), tracer=tracer)
        pings = [e for e in tracer.events if getattr(e, "mtype", "") == "VAR_PROBE"]
        assert [(type(e), e.dst, e.tag) for e in pings] == (
            [(MsgSendEvent, d, 5) for d in (1, 2, 1)]
            + [(MsgDeliverEvent, d, 5) for d in (1, 2, 1)])
        starts = [(e.trace, e.span, e.parent, e.name) for e in tracer.events
                  if isinstance(e, SpanStartEvent)]
        ends = [(e.trace, e.span, e.status) for e in tracer.events
                if isinstance(e, SpanEndEvent)]
        assert starts[:3] == [(2, s, 1, "msg:VAR_PROBE") for s in (8, 9, 10)]
        assert ends[:3] == [(2, s, "ok") for s in (8, 9, 10)]

    def test_an_empty_fanout_is_never_sent(self):
        transport, _, wire = self._fan_out(())
        assert len(wire) == 1  # the marker alone
        assert transport.stats.total_sent == 1 and "VAR_PROBE" not in transport.stats.sent

    @pytest.mark.parametrize("dsts", [(1, 3), (-1, 1), ()], ids=["past-end", "negative",
                                                               "empty"])
    def test_a_fanout_naming_no_slot_here_is_misrouted(self, dsts):
        # (0, 1) are the two slots: a stray slot misroutes the whole frame
        stray = encode(PingFanout(src=0, dst=-1, cycle=1, dsts=dsts))
        transport, seen, escaped = self._survives(stray)
        assert transport.misrouted == 1 and transport.codec_errors == 0
        assert transport.stats.delivered == {"VAR_PROBE": 1}  # the probe that followed
        assert seen == [2]
        assert escaped == []

    def test_a_previous_wire_version_is_refused(self):
        # a frame of wire v2, which had no fan-out: refused at decode
        old = bytes([WIRE_VERSION - 1]) + encode(VarProbe(src=0, dst=1, cycle=1))[1:]
        transport, seen, escaped = self._survives(old)
        assert transport.codec_errors == 1
        assert seen == [2]  # cycle 1 never reached the handler
        assert escaped == []

    def test_wire_bytes_and_closed_transport(self):
        async def body():
            loop = asyncio.get_running_loop()
            transport = await UdpTransport.create(LiveScheduler(loop), 2)
            msg = VarProbe(src=0, dst=1, cycle=3)
            transport.send(msg)
            wire = transport.wire_bytes_sent
            transport.close()
            transport.close()  # idempotent
            transport.send(msg)  # dropped silently after close
            return wire, transport.wire_bytes_sent, msg

        wire, after_close, msg = asyncio.run(body())
        assert after_close == wire == len(encode(msg))

    def test_a_failed_send_is_booked_and_the_next_arrives(self):
        class RefusesOnce:
            """The swarm's socket, except that one ``sendto`` fails."""

            def __init__(self, sock):
                self.sock, self.refused = sock, False

            def sendto(self, data, address):
                if not self.refused:
                    self.refused = True
                    raise BlockingIOError(errno.EAGAIN, "send buffer full")
                return self.sock.sendto(data, address)

            def __getattr__(self, name):
                return getattr(self.sock, name)

        async def body():
            loop = asyncio.get_running_loop()
            transport = await UdpTransport.create(LiveScheduler(loop), 2)
            real = transport._sock
            transport._sock = RefusesOnce(real)
            try:
                seen: list = []
                transport.register(1, lambda m: seen.append(m.cycle))
                transport.send_pings(0, (1, 1, 1), 1)  # refused: three pings lost
                transport.send(VarProbe(src=0, dst=1, cycle=2))
                deadline = loop.time() + 2.0
                while loop.time() < deadline and not seen:
                    await asyncio.sleep(0.005)
                return transport, seen
            finally:
                transport._sock = real
                transport.close()

        transport, seen = asyncio.run(body())
        stats = transport.stats
        assert seen == [2]
        assert stats.drop_reasons == {"send_error": 3}
        assert stats.dropped == {"VAR_PROBE": 3}
        assert (stats.total_sent, stats.total_delivered, stats.in_flight) == (4, 1, 0)
        assert (transport.datagrams_sent, transport.datagrams_read) == (1, 1)
        assert transport.wire_bytes_sent == len(encode(VarProbe(src=0, dst=1, cycle=2)))


@needs_loopback
class TestReader:
    """The transport's one reader drains a burst in batches of
    ``READS_PER_WAKEUP``, one loop wakeup each."""

    @staticmethod
    def _burst(n: int, monkeypatch, on_message=None):
        """Send ``n`` probes before the loop runs; return the reader
        calls it took to deliver them and the handler's log."""
        calls = [0]
        read_ready = UdpTransport._read_ready

        def counted(self):
            calls[0] += 1
            read_ready(self)

        monkeypatch.setattr(UdpTransport, "_read_ready", counted)

        async def body():
            loop = asyncio.get_running_loop()
            transport = await UdpTransport.create(LiveScheduler(loop), 2)
            log: list = []

            def handler(msg):
                log.append(msg.cycle)
                if on_message is not None:
                    on_message(msg, log)

            transport.register(1, handler)
            try:
                for i in range(n):  # all queued before the reader first runs
                    transport.send(VarProbe(src=0, dst=1, cycle=i))
                deadline = loop.time() + 5.0
                while loop.time() < deadline and transport.stats.total_delivered < n:
                    await asyncio.sleep(0.005)
                return transport, log
            finally:
                transport.close()

        transport, log = asyncio.run(body())
        assert transport.stats.total_delivered == n
        return calls[0], log

    def test_a_burst_costs_one_reader_call_per_batch(self, monkeypatch):
        calls, log = self._burst(200, monkeypatch)
        assert log == list(range(200))
        assert calls == math.ceil(200 / READS_PER_WAKEUP)

    def test_a_timer_due_during_a_burst_fires_between_batches(self, monkeypatch):
        def on_message(msg, log):
            if msg.cycle == 0:  # due at once, while the burst is still queued
                asyncio.get_running_loop().call_later(0.0, log.append, "timer")

        n = 3 * READS_PER_WAKEUP
        _, log = self._burst(n, monkeypatch, on_message)
        at = log.index("timer")
        assert 0 < at < n and at % READS_PER_WAKEUP == 0, at
        assert [c for c in log if c != "timer"] == list(range(n))

    def test_kernel_drops_are_read_per_socket(self):
        """A receive buffer too small for the burst: what the kernel
        dropped and what a read finds add up to what was sent."""
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as source:
            sink.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)  # kernel minimum
            sink.bind(("127.0.0.1", 0))
            sink.setblocking(False)
            before = _socket_drops(sink)
            if before is None:
                pytest.skip("/proc/net/udp unreadable here")
            for _ in range(100):
                source.sendto(b"x" * 200, sink.getsockname())
            received = 0
            while True:
                try:
                    sink.recv(65535)
                except BlockingIOError:
                    break
                received += 1
            drops = _socket_drops(sink)
        assert before == 0 and 0 < received < 100
        assert received + drops == 100


class TestDrainAtClose:
    """A burst sent just before close sits in the kernel's receive queue
    until the reader next wakes; the drain runs the same read loop at
    once, so that backlog is delivered or booked, never left in flight."""

    @staticmethod
    def _burst(wall_s: float, deferred: float = 0.0):
        async def body():
            loop = asyncio.get_running_loop()
            transport = await UdpTransport.create(LiveScheduler(loop), 2)
            seen: list = []
            transport.register(1, seen.append)
            for i in range(40):  # the loop never runs: all 40 stay queued
                transport.send(VarProbe(src=0, dst=1, cycle=i))
            if deferred:  # still on the scheduler when the drain starts
                transport.send(VarProbe(src=0, dst=1, cycle=40), extra_delay_ms=deferred)
            unread = transport.drain(wall_s)
            transport.send(VarProbe(src=0, dst=1, cycle=99))  # muted
            transport.close()
            return transport, seen, unread

        return asyncio.run(body())

    def test_drain_delivers_the_backlog(self):
        transport, seen, unread = self._burst(5.0)
        assert unread == 0
        assert [m.cycle for m in seen] == list(range(40))
        assert transport.stats.total_sent == transport.stats.total_delivered == 40
        assert transport.stats.in_flight == 0

    def test_what_the_deadline_leaves_is_booked_as_queued(self):
        transport, seen, unread = self._burst(0.0)
        assert unread == 40 and seen == []
        stats = transport.stats
        assert stats.drop_reasons == {"queued_at_close": 40}
        assert stats.total_sent == 40 and stats.in_flight == 0

    def test_a_deferred_transmit_is_booked_as_unsent(self):
        stats = self._burst(5.0, deferred=5000.0)[0].stats
        assert stats.drop_reasons["unsent_at_close"] == 1 and stats.in_flight == 0

    def test_the_drain_reads_the_kernel_drops_into_the_counters(self):
        transport = self._burst(5.0)[0]
        if transport.kernel_drops is None:
            pytest.skip("/proc/net/udp unreadable here")
        assert transport.wire_counters()["transport.kernel_drops"] == 0

    def test_a_fanout_left_queued_is_booked_as_its_pings(self):
        async def body():
            loop = asyncio.get_running_loop()
            transport = await UdpTransport.create(LiveScheduler(loop), 4)
            transport.send_pings(0, (1, 2, 3), 1)  # the loop never runs: it stays queued
            unread = transport.drain(0.0)
            transport.close()
            return transport, unread

        transport, unread = asyncio.run(body())
        stats = transport.stats
        assert unread == 1  # one datagram ...
        assert stats.drop_reasons == {"queued_at_close": 3}  # ... three pings
        assert stats.dropped == {"VAR_PROBE": 3} and stats.in_flight == 0
