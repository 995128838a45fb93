"""repro.live — the asyncio deployment plane.

Everything below :mod:`repro.net` is transport-agnostic by design; this
package supplies the *real* backend: the swarm's peers share one UDP
endpoint on an asyncio event loop, protocol timers are wall-clock
timers, and every message is one datagram encoded by
:mod:`repro.live.codec` — except a ping fan-out, whose pings travel as
one ``PING_FANOUT`` datagram.  The same
:class:`~repro.net.engine.MessagePROPEngine` state machine that runs
deterministically over :class:`~repro.net.transport.SimTransport` runs
here unchanged — the deployment plane swaps the clock and the wire,
never the protocol.

Module map:

* :mod:`repro.live.codec` — versioned wire format for every
  :mod:`repro.net.messages` dataclass (``WIRE_TYPES``);
* :mod:`repro.live.clock` — :class:`LiveScheduler`, the wall-clock
  drop-in for the :class:`~repro.netsim.engine.Simulator` scheduling
  vocabulary (``now`` / ``schedule`` / ``schedule_at``), with a
  ``speedup`` factor mapping protocol seconds onto wall seconds;
* :mod:`repro.live.transport` — :class:`UdpTransport`, the
  :class:`~repro.net.transport.Transport` implementation over one
  loopback UDP socket per swarm, dispatching on the decoded ``dst``;
* :mod:`repro.live.traffic` — :class:`TrafficGenerator`, sustained
  lookups/s against the live overlay;
* :mod:`repro.live.swarm` — :class:`Swarm`: spawn N peers, bootstrap
  membership from the topology presets, churn from the config's
  :class:`~repro.workloads.churn.ChurnConfig`.

``run_experiment`` with ``transport="udp"`` drives a :class:`Swarm`
through the harness's own sampling loop; ``python -m repro run
--transport udp`` is its command line.

This package and the profiling plane are the places in ``src/repro``
sanctioned to read wall clocks (the seeded sweep in
``tests/properties/test_stream_ownership.py`` fails a clock read
anywhere else); randomness remains seeded-stream-only everywhere.
"""

from repro.live.clock import LiveScheduler
from repro.live.codec import CodecError, WIRE_VERSION, decode, encode
from repro.live.swarm import Swarm, SwarmReport
from repro.live.traffic import TrafficGenerator
from repro.live.transport import UdpTransport, udp_loopback_available

__all__ = [
    "CodecError",
    "LiveScheduler",
    "Swarm",
    "SwarmReport",
    "TrafficGenerator",
    "UdpTransport",
    "WIRE_VERSION",
    "decode",
    "encode",
    "udp_loopback_available",
]
