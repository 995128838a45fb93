"""Kademlia: bucket structure, XOR routing, PROP-G compatibility."""

import numpy as np
import pytest

from repro.netsim.rng import RngRegistry
from repro.overlay.kademlia import KademliaOverlay


@pytest.fixture()
def kad(small_oracle, rngs):
    return KademliaOverlay.build(small_oracle, rngs.stream("kad"), k=8)


class TestConstruction:
    def test_connected(self, kad):
        assert kad.is_connected()

    def test_bucket_membership_prefixes(self, kad):
        for u in range(0, kad.n_slots, 7):
            for i, bucket in enumerate(kad.buckets[u]):
                for v in bucket:
                    x = int(kad.ids[u]) ^ int(kad.ids[v])
                    assert kad.bits - x.bit_length() == i

    def test_buckets_truncated_to_k(self, kad):
        for u in range(kad.n_slots):
            for bucket in kad.buckets[u]:
                assert len(bucket) <= kad.k

    def test_bucket_keeps_closest(self, kad):
        """Retained members are the XOR-closest of their prefix class."""
        u = 0
        xor = kad.ids ^ int(kad.ids[u])
        for i, bucket in enumerate(kad.buckets[u]):
            if not bucket:
                continue
            all_members = [
                v for v in range(kad.n_slots)
                if v != u and kad.bits - int(xor[v]).bit_length() == i
            ]
            kept = sorted(int(xor[v]) for v in bucket)
            best = sorted(int(xor[v]) for v in all_members)[: len(bucket)]
            assert kept == best

    def test_duplicate_ids_rejected(self, small_oracle):
        with pytest.raises(ValueError):
            KademliaOverlay(small_oracle, np.arange(3), np.array([1, 1, 2]), bits=8)

    def test_invalid_k_rejected(self, small_oracle, rngs):
        with pytest.raises(ValueError):
            KademliaOverlay.build(small_oracle, rngs.stream("x"), k=0)

    def test_deterministic(self, small_oracle):
        a = KademliaOverlay.build(small_oracle, RngRegistry(5).stream("k"))
        b = KademliaOverlay.build(small_oracle, RngRegistry(5).stream("k"))
        assert np.array_equal(a.ids, b.ids)


class TestRouting:
    def test_reaches_owner(self, kad):
        rng = np.random.default_rng(0)
        for _ in range(200):
            src = int(rng.integers(0, kad.n_slots))
            key = int(rng.integers(0, kad.space))
            assert kad.route(src, key)[-1] == kad.owner(key)

    def test_xor_distance_strictly_decreases(self, kad):
        rng = np.random.default_rng(1)
        for _ in range(50):
            src = int(rng.integers(0, kad.n_slots))
            key = int(rng.integers(0, kad.space))
            path = kad.route(src, key)
            dists = [kad._xor(s, key) for s in path]
            assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_hops_bounded_by_bits(self, kad):
        rng = np.random.default_rng(2)
        for _ in range(50):
            src = int(rng.integers(0, kad.n_slots))
            key = int(rng.integers(0, kad.space))
            assert len(kad.route(src, key)) - 1 <= kad.bits

    def test_own_key_trivial(self, kad):
        key = int(kad.ids[5])
        assert kad.route(5, key) == [5]

    def test_lookup_latency_with_processing(self, kad):
        key = int(kad.ids[20]) ^ 0xFF
        path = kad.route(0, key)
        nd = np.full(kad.n_slots, 7.0)
        assert kad.lookup_latency(0, key, nd) == pytest.approx(
            kad.path_latency(path) + 7.0 * (len(path) - 1)
        )


class TestPropGCompatibility:
    def test_rewiring_refused(self, kad):
        from repro.core.config import PROPConfig
        from repro.core.protocol import PROPEngine
        from repro.netsim.engine import Simulator

        with pytest.raises(ValueError):
            PROPEngine(kad, PROPConfig(policy="O"), Simulator(), RngRegistry(1))

    def test_prop_g_engine_optimizes_kademlia(self, kad):
        from repro.core.config import PROPConfig
        from repro.core.protocol import PROPEngine
        from repro.netsim.engine import Simulator

        before = kad.mean_logical_edge_latency()
        edges = set(kad.iter_edges())
        sim = Simulator()
        eng = PROPEngine(kad, PROPConfig(policy="G"), sim, RngRegistry(2))
        eng.start()
        sim.run_until(1800.0)
        assert eng.counters.exchanges > 0
        assert kad.mean_logical_edge_latency() < before
        assert set(kad.iter_edges()) == edges  # structure untouched

    def test_routing_correct_after_swaps(self, kad):
        rng = np.random.default_rng(3)
        for _ in range(30):
            u, v = rng.integers(0, kad.n_slots, size=2)
            if u != v:
                kad.swap_embedding(int(u), int(v))
        for _ in range(50):
            src = int(rng.integers(0, kad.n_slots))
            key = int(rng.integers(0, kad.space))
            assert kad.route(src, key)[-1] == kad.owner(key)

    def test_copy_independent(self, kad):
        clone = kad.copy()
        clone.swap_embedding(0, 1)
        assert kad.host_at(0) != clone.host_at(0)
