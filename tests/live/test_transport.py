"""Transport parity across every backend, and UDP-specific delivery
semantics.

The parity class drives the same register → deliver → absorb scenario
through all three Transport implementations — :class:`SimTransport`,
:class:`FaultyTransport` and :class:`UdpTransport` — asserting identical
protocol-visible behavior: a registered slot's handler runs, and a slot
with no registered handler absorbs messages (delivery still counted, no
handler called).  UDP cases are skipped where loopback sockets are
unavailable.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.live.clock import LiveScheduler
from repro.live.codec import encode, encoded_size
from repro.live.node import PeerNode
from repro.live.transport import UdpTransport, udp_loopback_available
from repro.net.faults import FaultyTransport
from repro.net.messages import VarProbe
from repro.net.transport import SimTransport, Transport
from repro.netsim.engine import Simulator

LOOPBACK = udp_loopback_available()
needs_loopback = pytest.mark.skipif(
    not LOOPBACK, reason="loopback UDP unavailable in this environment"
)


class Scenario:
    """register a handler on ``slot``, send one probe to slot 1, report
    (handler calls, stats)."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.msg = VarProbe(src=0, dst=1, cycle=7)

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
        assert stats.sent["VAR_PROBE"] == 1
        assert stats.delivered["VAR_PROBE"] == 1

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
        assert stats.delivered["VAR_PROBE"] == 1  # ... but delivery is counted

    def test_every_backend_satisfies_the_protocol_surface(self):
        for cls in (SimTransport, FaultyTransport, UdpTransport):
            for name in ("register", "send"):
                assert callable(getattr(cls, name)), f"{cls.__name__}.{name}"


@needs_loopback
class TestUdpSemantics:
    """Behavior specific to the real datagram path."""

    @staticmethod
    def _run(body):
        return asyncio.run(body())

    def test_garbage_datagram_counted_not_raised(self):
        async def body():
            loop = asyncio.get_running_loop()
            transport = await UdpTransport.create(LiveScheduler(loop), 2)
            try:
                transport.nodes[0].sendto(b"not a frame", transport.nodes[1].address)
                deadline = loop.time() + 2.0
                while loop.time() < deadline and transport.codec_errors < 1:
                    await asyncio.sleep(0.005)
                return transport.codec_errors, transport.stats.total_delivered
            finally:
                transport.close()

        codec_errors, delivered = self._run(body)
        assert codec_errors == 1
        assert delivered == 0

    @staticmethod
    async def _until_two(seen: list) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 2.0
        while loop.time() < deadline and len(seen) < 2:
            await asyncio.sleep(0.005)

    def test_raising_handler_counted_not_raised(self):
        async def body():
            loop = asyncio.get_running_loop()
            escaped: list = []
            loop.set_exception_handler(lambda _loop, ctx: escaped.append(ctx))
            transport = await UdpTransport.create(LiveScheduler(loop), 2)
            try:
                seen: list = []

                def handler(msg):
                    seen.append(msg.cycle)
                    if msg.cycle == 1:
                        raise RuntimeError("handler bug")

                transport.register(1, handler)
                transport.send(VarProbe(src=0, dst=1, cycle=1))
                transport.send(VarProbe(src=0, dst=1, cycle=2))
                await self._until_two(seen)
                return transport.handler_errors, seen, escaped
            finally:
                transport.close()

        handler_errors, seen, escaped = self._run(body)
        assert handler_errors == 1
        assert seen == [1, 2]  # the loop survived: the next datagram arrived
        assert escaped == []  # nothing reached the loop's exception handler

    def test_raising_sink_counted_not_raised(self):
        async def body():
            loop = asyncio.get_running_loop()
            escaped: list = []
            loop.set_exception_handler(lambda _loop, ctx: escaped.append(ctx))
            seen: list = []

            def sink(slot, data):
                seen.append(data)
                if data == b"first":
                    raise RuntimeError("sink bug")

            sender = await PeerNode.create(loop, 0, lambda slot, data: None)
            receiver = await PeerNode.create(loop, 1, sink)
            try:
                sender.sendto(b"first", receiver.address)
                sender.sendto(b"second", receiver.address)
                await self._until_two(seen)
                return receiver.sink_errors, seen, escaped
            finally:
                sender.close()
                receiver.close()

        sink_errors, seen, escaped = self._run(body)
        assert sink_errors == 1
        assert seen == [b"first", b"second"]
        assert escaped == []

    def test_misrouted_frame_counted_and_dropped(self):
        async def body():
            loop = asyncio.get_running_loop()
            transport = await UdpTransport.create(LiveScheduler(loop), 2)
            try:
                seen: list = []
                transport.register(1, seen.append)
                # a frame addressed to slot 0 lands on slot 1's socket
                stray = VarProbe(src=0, dst=0, cycle=1)
                transport.nodes[0].sendto(encode(stray), transport.nodes[1].address)
                deadline = loop.time() + 2.0
                while loop.time() < deadline and transport.misrouted < 1:
                    await asyncio.sleep(0.005)
                return transport.misrouted, seen
            finally:
                transport.close()

        misrouted, seen = self._run(body)
        assert misrouted == 1
        assert seen == []

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

        got_at = self._run(body)
        assert got_at and got_at[0] >= 5.0

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

        wire, after_close, msg = self._run(body)
        assert wire == encoded_size(msg)
        assert after_close == wire
