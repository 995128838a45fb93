"""CAN: zone tiling, adjacency, greedy routing."""

import numpy as np
import pytest

from repro.netsim.rng import RngRegistry
from repro.overlay.can import CANOverlay, Zone


@pytest.fixture()
def can(small_oracle, rngs):
    return CANOverlay.build(small_oracle, rngs.stream("can"), dims=2)


class TestZone:
    def test_contains(self):
        z = Zone(np.array([0.0, 0.0]), np.array([0.5, 1.0]))
        assert z.contains(np.array([0.25, 0.5]))
        assert not z.contains(np.array([0.5, 0.5]))  # hi excluded
        assert z.contains(np.array([0.0, 0.0]))  # lo included

    def test_volume(self):
        z = Zone(np.array([0.0, 0.25]), np.array([0.5, 0.75]))
        assert z.volume() == pytest.approx(0.25)

    def test_split_halves_widest(self):
        z = Zone(np.array([0.0, 0.0]), np.array([1.0, 0.5]))
        low, high = z.split()
        assert low.hi[0] == pytest.approx(0.5)
        assert high.lo[0] == pytest.approx(0.5)
        assert low.volume() + high.volume() == pytest.approx(z.volume())


class TestBuild:
    def test_zones_tile_the_torus(self, can):
        assert can.total_zone_volume() == pytest.approx(1.0)

    def test_zones_disjoint(self, can):
        """Random points are contained in exactly one zone."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.random(2)
            owners = [s for s, z in enumerate(can.zones) if z.contains(p)]
            assert len(owners) == 1

    def test_connected(self, can):
        assert can.is_connected()

    def test_every_zone_has_neighbors(self, can):
        assert can.min_degree() >= 1

    def test_1d_can(self, small_oracle, rngs):
        ov = CANOverlay.build(small_oracle, rngs.stream("can1"), dims=1)
        assert ov.total_zone_volume() == pytest.approx(1.0)
        assert ov.is_connected()
        # 1-D torus: every node has exactly two neighbors (left/right),
        # except degenerate duplicates merged by adjacency
        assert ov.min_degree() >= 1

    def test_3d_can(self, small_oracle, rngs):
        ov = CANOverlay.build(small_oracle, rngs.stream("can3"), dims=3)
        assert ov.total_zone_volume() == pytest.approx(1.0)
        assert ov.is_connected()

    def test_invalid_dims_rejected(self, small_oracle, rngs):
        with pytest.raises(ValueError):
            CANOverlay.build(small_oracle, rngs.stream("x"), dims=0)

    def test_deterministic(self, small_oracle):
        a = CANOverlay.build(small_oracle, RngRegistry(5).stream("can"))
        b = CANOverlay.build(small_oracle, RngRegistry(5).stream("can"))
        assert set(a.iter_edges()) == set(b.iter_edges())


class TestRouting:
    def test_owner_of_point(self, can):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.random(2)
            owner = can.owner(p)
            assert can.zones[owner].contains(p)

    def test_route_reaches_owner(self, can):
        rng = np.random.default_rng(2)
        for _ in range(50):
            src = int(rng.integers(0, can.n_slots))
            p = rng.random(2)
            path = can.route(src, p)
            assert path[0] == src
            assert path[-1] == can.owner(p)

    def test_route_uses_edges(self, can):
        rng = np.random.default_rng(3)
        for _ in range(25):
            src = int(rng.integers(0, can.n_slots))
            p = rng.random(2)
            path = can.route(src, p)
            for a, b in zip(path, path[1:]):
                assert can.has_edge(a, b)

    def test_route_to_own_zone(self, can):
        p = can.zones[5].center()
        assert can.route(5, p) == [5]

    def test_path_latency_with_processing(self, can):
        p = can.zones[10].center()
        path = can.route(0, p)
        nd = np.full(can.n_slots, 3.0)
        base = can.path_latency(path)
        assert can.path_latency(path, nd) == pytest.approx(base + 3.0 * (len(path) - 1))

    def test_swap_embedding_preserves_zones(self, can):
        zones_before = can.zones
        edges_before = set(can.iter_edges())
        can.swap_embedding(0, 5)
        assert can.zones is zones_before
        assert set(can.iter_edges()) == edges_before

    def test_copy_independent(self, can):
        clone = can.copy()
        clone.swap_embedding(0, 1)
        assert can.host_at(0) != clone.host_at(0)
