"""``random_walk`` is nothing but :func:`walk_step` applied hop by hop.

The inline driver loops inside ``random_walk``; the message driver calls
``walk_step`` once per ``WALK`` delivery with the path rebuilt from the
message.  Fed the same RNG state, both must visit the same nodes and
leave the stream at the same position — the hop rule has one definition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.walk import random_walk, walk_step
from tests.properties.util import random_connected_overlay


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nhops=st.integers(1, 8), pick=st.integers(0, 10**6))
def test_random_walk_equals_hop_by_hop_steps(seed, nhops, pick):
    ov = random_connected_overlay(seed)
    u = pick % ov.n_slots
    first_hop = ov.sorted_neighbors(u)[pick % ov.degree(u)]
    looped, stepped = np.random.default_rng(seed), np.random.default_rng(seed)

    target, path = random_walk(ov, u, first_hop, nhops, looped)

    # the message plane's form: one step per delivery, TTL counted down,
    # the visited set rebuilt from the path carried so far
    hops, ttl = (u, first_hop), nhops - 1
    while ttl > 0:
        nxt = walk_step(ov, hops[-1], set(hops), stepped)
        if nxt is None:
            break
        hops, ttl = hops + (nxt,), ttl - 1

    assert list(hops) == path and hops[-1] == target
    assert len(set(path)) == len(path) <= nhops + 1
    assert looped.bit_generator.state == stepped.bit_generator.state
