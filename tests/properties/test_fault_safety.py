"""Exchange safety under arbitrary message faults.

The two-phase exchange commit claims the overlay can never be observed
half-exchanged, whatever the loss/delay/partition pattern.  These
properties drive PROP-G through hundreds of handled messages at 30 %
loss with jitter, reordering, and a transient partition, and assert the
Theorem 1/2 invariants via a transport tap **after every single
handled delivery**.  The tap does not see the ``VAR_PROBE`` pings: a
ping changes nothing where it lands, so the simulated transport only
counts it, and no state can change at one.  The invariants:

* the logical edge set never changes (PROP-G swaps positions only);
* the embedding stays a permutation of the original hosts — no host
  duplicated or lost mid-swap;
* on Chord, every ring successor link ``(i, i+1 mod n)`` stays present.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PROPConfig
from repro.net.engine import MessagePROPEngine
from repro.net.faults import FaultyTransport
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.overlay.chord import ChordOverlay
from tests.properties.util import FakeOracle, random_connected_overlay

#: Handled deliveries to check.  The tap sees no ping, and pings are
#: about 55 % of all deliveries at these fault rates, so this is some
#: 1000 deliveries in all.
TARGET_DELIVERIES = 400
MAX_SIM_TIME = 14400.0


def _edge_set(overlay):
    return frozenset(
        (min(u, w), max(u, w))
        for u in range(overlay.n_slots)
        for w in overlay.neighbor_list(u)
    )


def _drive_with_invariant_tap(overlay, seed, extra_invariant=None):
    """Run PROP-G over a heavily faulted transport, checking after every
    handled delivery; returns (engine, handled deliveries)."""
    edges0 = _edge_set(overlay)
    hosts0 = sorted(overlay.embedding.tolist())
    sim = Simulator()
    rngs = RngRegistry(seed)
    delivered = [0]

    def tap(msg):
        delivered[0] += 1
        assert _edge_set(overlay) == edges0, "logical graph mutated"
        assert sorted(overlay.embedding.tolist()) == hosts0, (
            "embedding is no longer a permutation: half-applied swap"
        )
        if extra_invariant is not None:
            extra_invariant(overlay)

    base = SimTransport(sim, overlay, tap=tap)
    faulty = FaultyTransport(
        base, rngs.stream("net:faults"),
        loss=0.3, jitter_ms=20.0, reorder_prob=0.2, reorder_ms=100.0,
    )
    half = overlay.n_slots // 2
    faulty.partition("a:b", frozenset(range(half)),
                     frozenset(range(half, overlay.n_slots)))
    sim.schedule(300.0, faulty.heal, "a:b")

    engine = MessagePROPEngine(
        overlay, PROPConfig(policy="G"), sim, rngs, faulty
    )
    engine.start()
    t = 0.0
    while delivered[0] < TARGET_DELIVERIES and t < MAX_SIM_TIME:
        t += 600.0
        sim.run_until(t)
    return engine, delivered[0]


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_faulted_prop_g_preserves_isomorphism_on_random_overlay(seed):
    overlay = random_connected_overlay(seed, n_min=16, n_max=32)
    engine, delivered = _drive_with_invariant_tap(overlay, seed)
    assert delivered >= TARGET_DELIVERIES
    # no orphaned participant lock: every remaining one can still self-heal
    assert all(p.timeout.pending for p in engine._prepared.values())


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_faulted_prop_g_preserves_chord_ring(seed):
    rng = np.random.default_rng(seed)
    oracle = FakeOracle(24, rng)
    overlay = ChordOverlay.build(oracle, rng)
    n = overlay.n_slots

    def ring_intact(ov):
        for i in range(n):
            assert ov.has_edge(i, (i + 1) % n), "ring successorship broken"

    engine, delivered = _drive_with_invariant_tap(
        overlay, seed, extra_invariant=ring_intact
    )
    assert delivered >= TARGET_DELIVERIES
    assert all(p.timeout.pending for p in engine._prepared.values())
    # the structural invariant also held at rest, not only mid-flight
    ring_intact(overlay)
