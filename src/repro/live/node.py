"""One peer's datagram endpoint.

A :class:`PeerNode` owns one UDP socket bound to an ephemeral loopback
port — the live plane's unit of "actual peer": every protocol message
between two slots leaves one peer's socket and arrives on another's
through the kernel network stack, never through an in-process shortcut.
The node knows nothing about the protocol; it hands raw datagrams to the
callback :class:`~repro.live.transport.UdpTransport` installed, which
owns decoding, telemetry and handler dispatch.
"""

from __future__ import annotations

import asyncio
from typing import Callable

__all__ = ["PeerNode"]

DatagramSink = Callable[[int, bytes], None]


class _PeerProtocol(asyncio.DatagramProtocol):
    """Datagram glue: forward every received payload to the node's sink."""

    def __init__(self, slot: int, sink: DatagramSink) -> None:
        self._slot = slot
        self._sink = sink
        self.errors = 0
        self.sink_errors = 0

    def datagram_received(self, data: bytes, addr: tuple[str, int]) -> None:
        # counted-never-raised: an exception escaping this callback would
        # detach the transport via the loop's exception handler
        try:
            self._sink(self._slot, data)
        except Exception:
            self.sink_errors += 1

    def error_received(self, exc: OSError) -> None:
        # ICMP-reported send failure (e.g. peer socket already closed
        # during shutdown); the protocol's timeout machinery recovers
        self.errors += 1


class PeerNode:
    """A slot's live endpoint: one bound UDP socket on the event loop.

    Build with :meth:`create` (binding is asynchronous); address lookup,
    sending and closing are synchronous thereafter.
    """

    def __init__(
        self,
        slot: int,
        transport: asyncio.DatagramTransport,
        protocol: _PeerProtocol,
    ) -> None:
        self.slot = slot
        self._transport = transport
        self._protocol = protocol
        sock = transport.get_extra_info("sockname")
        self.address: tuple[str, int] = (sock[0], sock[1])

    @classmethod
    async def create(
        cls,
        loop: asyncio.AbstractEventLoop,
        slot: int,
        sink: DatagramSink,
        *,
        host: str = "127.0.0.1",
    ) -> "PeerNode":
        """Bind ``slot``'s endpoint on an ephemeral ``host`` port."""
        transport, protocol = await loop.create_datagram_endpoint(
            lambda: _PeerProtocol(slot, sink), local_addr=(host, 0)
        )
        return cls(slot, transport, protocol)

    @property
    def sink_errors(self) -> int:
        """Exceptions the datagram sink raised (counted, never raised)."""
        return self._protocol.sink_errors

    def sendto(self, data: bytes, address: tuple[str, int]) -> None:
        """Transmit one datagram from this peer's socket (non-blocking)."""
        self._transport.sendto(data, address)

    def close(self) -> None:
        self._transport.close()
