"""Kademlia structural properties over random networks (hypothesis).

The interesting risk in our Kademlia is bucket truncation: each bucket
keeps only the ``k`` XOR-closest members of its prefix class, so greedy
routing must still always find a strictly closer contact.  The suites
fuzz sizes, bucket widths and id draws to pin that down.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.rng import RngRegistry
from repro.overlay.kademlia import KademliaOverlay
from tests.properties.util import FakeOracle


def _kad(seed: int, n: int, k: int) -> KademliaOverlay:
    rng = np.random.default_rng(seed)
    oracle = FakeOracle(n, rng)
    return KademliaOverlay.build(oracle, RngRegistry(seed).stream("kad"), k=k)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 48), k=st.integers(1, 8))
def test_routing_reaches_owner(seed, n, k):
    kad = _kad(seed, n, k)
    rng = np.random.default_rng(seed ^ 7)
    for _ in range(15):
        src = int(rng.integers(0, n))
        key = int(rng.integers(0, kad.space))
        assert kad.route(src, key)[-1] == kad.owner(key)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 48), k=st.integers(1, 8))
def test_connected(seed, n, k):
    kad = _kad(seed, n, k)
    assert kad.is_connected()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 32))
def test_owner_is_global_xor_minimum(seed, n):
    kad = _kad(seed, n, 4)
    rng = np.random.default_rng(seed ^ 9)
    for _ in range(20):
        key = int(rng.integers(0, kad.space))
        owner = kad.owner(key)
        d_owner = int(kad.ids[owner]) ^ key
        assert all(
            d_owner <= (int(kad.ids[v]) ^ key) for v in range(n)
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 24), swaps=st.integers(1, 20))
def test_prop_g_swaps_never_break_routing(seed, n, swaps):
    kad = _kad(seed, n, 4)
    rng = np.random.default_rng(seed ^ 11)
    for _ in range(swaps):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            kad.swap_embedding(int(u), int(v))
    for _ in range(10):
        src = int(rng.integers(0, n))
        key = int(rng.integers(0, kad.space))
        assert kad.route(src, key)[-1] == kad.owner(key)
