"""Chord structural properties over random rings (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pns import PNSChordOverlay
from repro.netsim.rng import RngRegistry
from repro.overlay.chord import ChordOverlay
from repro.overlay.ids import unique_ids
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


def _scan_route(ring: ChordOverlay, src: int, key: int, alive: np.ndarray) -> list[int]:
    """Reference lookup: scan the fingers from the farthest down for the
    first alive one strictly inside ``(cur, key)``, else take the first
    alive successor-list entry — the per-finger loop bisection replaced."""
    ids, space, n = ring.ids, ring.space, ring.n_slots
    key %= space
    dest = ring.owner_of_key_alive(key, alive)
    path = [src]
    cur = src
    while cur != dest:
        cur_id = int(ids[cur])
        key_cw = (key - cur_id) % space
        nxt = None
        for j in reversed(ring.fingers[cur]):
            if alive[j] and 0 < (int(ids[j]) - cur_id) % space < key_cw:
                nxt = j
                break
        if nxt is None:
            nxt = next(j for j in ring.successor_list(cur, min(8, n - 1)) if alive[j])
        path.append(nxt)
        cur = nxt
        assert len(path) <= 4 * n
    return path


@st.composite
def _rings(draw):
    bits = draw(st.integers(8, 20))
    n = draw(st.integers(1, min(300, 1 << bits)))
    return draw(st.integers(0, 2**32 - 1)), n, bits


@settings(max_examples=25, deadline=None)
@given(ring_args=_rings(), pns=st.booleans())
def test_bisection_routes_as_the_finger_scan(ring_args, pns):
    """``route`` and ``route_with_failures`` take the hops of the reference
    finger scan, on plain rings and on PNS rings re-picked after swaps."""
    seed, n, bits = ring_args
    rng = np.random.default_rng(seed)
    ids = np.sort(unique_ids(n, bits, rng))
    cls = PNSChordOverlay if pns and n > 1 else ChordOverlay
    ring = cls(FakeOracle(n, rng), rng.permutation(n), ids, bits)
    if cls is PNSChordOverlay:
        for _ in range(n):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                ring.swap_embedding(int(u), int(v))
        ring.refresh()
    for slot in range(n):
        dist = [(int(ids[j]) - int(ids[slot])) % ring.space for j in ring.fingers[slot]]
        assert ring.finger_dist[slot] == dist == sorted(set(dist))
    picks = rng.choice(n, size=min(n, 8), replace=False).tolist()
    keys = [0, ring.space - 1] + [int(ids[j]) + d for j in picks for d in (-1, 0, 1)]
    everyone = np.ones(n, dtype=bool)
    alive = rng.random(n) > 0.2
    for src in picks:
        for key in keys:
            assert ring.route(src, key) == _scan_route(ring, src, key, everyone)
            alive[src] = True
            try:
                expected = _scan_route(ring, src, key, alive)
            except StopIteration:  # a dead successor list: the ring is broken
                with pytest.raises(RuntimeError):
                    ring.route_with_failures(src, key, alive)
            else:
                assert ring.route_with_failures(src, key, alive) == expected
