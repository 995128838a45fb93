"""Chord structural properties over random rings (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.rng import RngRegistry
from repro.overlay.chord import ChordOverlay
from tests.properties.util import FakeOracle


def _ring(seed: int, n: int) -> ChordOverlay:
    rng = np.random.default_rng(seed)
    oracle = FakeOracle(n, rng)
    return ChordOverlay.build(oracle, RngRegistry(seed).stream("chord"), bits=16)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 48))
def test_lookup_always_reaches_owner(seed, n):
    ring = _ring(seed, n)
    rng = np.random.default_rng(seed ^ 1)
    for _ in range(20):
        src = int(rng.integers(0, n))
        key = int(rng.integers(0, ring.space))
        assert ring.route(src, key)[-1] == ring.owner(key)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 48))
def test_owners_partition_the_key_space(seed, n):
    """Every key has exactly one owner and ownership is the successor rule."""
    ring = _ring(seed, n)
    rng = np.random.default_rng(seed ^ 2)
    for _ in range(30):
        key = int(rng.integers(0, ring.space))
        owner = ring.owner(key)
        oid = int(ring.ids[owner])
        pred = int(ring.ids[(owner - 1) % n])
        # key lies in (pred, owner] on the ring
        assert (oid - key) % ring.space <= (oid - pred - 1) % ring.space


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 48))
def test_hop_count_bounded_by_bits(seed, n):
    ring = _ring(seed, n)
    rng = np.random.default_rng(seed ^ 3)
    for _ in range(10):
        src = int(rng.integers(0, n))
        key = int(rng.integers(0, ring.space))
        assert len(ring.route(src, key)) - 1 <= ring.bits


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 32))
def test_ring_connected_and_symmetric(seed, n):
    ring = _ring(seed, n)
    assert ring.is_connected()
    for a in range(n):
        for b in ring.neighbor_list(a):
            assert ring.has_edge(b, a)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 24), swaps=st.integers(1, 20))
def test_routing_correct_after_arbitrary_prop_g_swaps(seed, n, swaps):
    """PROP-G on Chord = identifier swaps; lookups must stay correct."""
    ring = _ring(seed, n)
    rng = np.random.default_rng(seed ^ 4)
    for _ in range(swaps):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            ring.swap_embedding(int(u), int(v))
    for _ in range(10):
        src = int(rng.integers(0, n))
        key = int(rng.integers(0, ring.space))
        assert ring.route(src, key)[-1] == ring.owner(key)
