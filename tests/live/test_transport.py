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
import socket

import numpy as np
import pytest

from repro.live.clock import LiveScheduler
from repro.live.codec import decode, encode
from repro.live.transport import UdpTransport, udp_loopback_available
from repro.net.faults import FaultyTransport
from repro.net.messages import Notify, VarProbe
from repro.net.transport import SimTransport, Transport
from repro.netsim.engine import Simulator
from repro.obs.events import SpanEndEvent
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

    def test_pings_are_one_datagram_each_and_reach_the_handler(self):
        async def body():
            loop = asyncio.get_running_loop()
            transport = await UdpTransport.create(LiveScheduler(loop), 2)
            try:
                seen: list = []
                transport.register(1, seen.append)
                transport.send_pings(0, (1, 1, 1), 5, trace_id=2, span_id=8, parent_id=1)
                deadline = loop.time() + 2.0
                while loop.time() < deadline and len(seen) < 3:
                    await asyncio.sleep(0.005)
                return transport, seen
            finally:
                transport.close()

        transport, seen = asyncio.run(body())
        sent = [VarProbe(src=0, dst=1, cycle=5, trace_id=2, span_id=8 + i, parent_id=1)
                for i in range(3)]
        assert sorted(seen, key=lambda m: m.span_id) == sent
        assert transport.wire_bytes_sent == sum(len(encode(m)) for m in sent)
        assert transport.stats.sent["VAR_PROBE"] == transport.stats.delivered["VAR_PROBE"] == 3

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


class TestDrainAtClose:
    """asyncio reads one datagram per loop iteration, so a burst sent
    just before close is still in the kernel's receive queue."""

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
