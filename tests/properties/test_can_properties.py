"""CAN structural properties over random joins (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.rng import RngRegistry
from repro.overlay.can import CANOverlay
from tests.properties.util import FakeOracle


def _can(seed: int, n: int, dims: int) -> CANOverlay:
    rng = np.random.default_rng(seed)
    oracle = FakeOracle(n, rng)
    return CANOverlay.build(oracle, RngRegistry(seed).stream("can"), dims=dims)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), dims=st.integers(1, 3))
def test_zones_tile_exactly(seed, n, dims):
    """No overlap, no gap: total volume 1 and every point owned once."""
    can = _can(seed, n, dims)
    assert abs(can.total_zone_volume() - 1.0) < 1e-9
    rng = np.random.default_rng(seed ^ 5)
    for _ in range(25):
        p = rng.random(dims)
        owners = [s for s, z in enumerate(can.zones) if z.contains(p)]
        assert len(owners) == 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), dims=st.integers(1, 3))
def test_adjacency_connected(seed, n, dims):
    can = _can(seed, n, dims)
    assert can.is_connected()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 32), dims=st.integers(2, 3))
def test_routing_terminates_at_owner(seed, n, dims):
    can = _can(seed, n, dims)
    rng = np.random.default_rng(seed ^ 6)
    for _ in range(10):
        src = int(rng.integers(0, n))
        p = rng.random(dims)
        path = can.route(src, p)
        assert path[-1] == can.owner(p)
        assert len(set(path)) == len(path)  # no cycles


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 32))
def test_zone_boxes_well_formed(seed, n):
    can = _can(seed, n, 2)
    for z in can.zones:
        assert np.all(z.lo < z.hi)
        assert np.all(z.lo >= 0.0)
        assert np.all(z.hi <= 1.0)
