"""Pastry: leaf sets, routing tables, prefix routing."""

import numpy as np
import pytest

from repro.netsim.rng import RngRegistry
from repro.overlay.ids import common_prefix_len, digits_of
from repro.overlay.pastry import PastryOverlay


@pytest.fixture()
def pastry(small_oracle, rngs):
    return PastryOverlay.build(small_oracle, rngs.stream("pastry"))


class TestConstruction:
    def test_connected(self, pastry):
        assert pastry.is_connected()

    def test_leaf_sets_are_ring_closest(self, pastry):
        order = np.argsort(pastry.ids)
        rank = np.empty(pastry.n_slots, dtype=int)
        rank[order] = np.arange(pastry.n_slots)
        n = pastry.n_slots
        for i in range(0, n, 11):
            for j in pastry.leaf_sets[i]:
                dist = min((rank[j] - rank[i]) % n, (rank[i] - rank[j]) % n)
                assert dist <= pastry.leaf_set_size // 2

    def test_routing_table_entries_share_prefix(self, pastry):
        for i in range(0, pastry.n_slots, 9):
            di = pastry.digits[i]
            for (row, digit), j in pastry.routing_tables[i].items():
                dj = pastry.digits[j]
                assert dj[:row] == di[:row]
                assert dj[row] == digit
                assert di[row] != digit

    def test_edges_cover_tables(self, pastry):
        for i in range(0, pastry.n_slots, 13):
            for j in pastry.leaf_sets[i]:
                assert pastry.has_edge(i, j)
            for j in pastry.routing_tables[i].values():
                assert pastry.has_edge(i, j)

    def test_duplicate_ids_rejected(self, small_oracle):
        with pytest.raises(ValueError):
            PastryOverlay(small_oracle, np.arange(3), np.array([1, 1, 2]))

    def test_deterministic(self, small_oracle):
        a = PastryOverlay.build(small_oracle, RngRegistry(5).stream("p"))
        b = PastryOverlay.build(small_oracle, RngRegistry(5).stream("p"))
        assert np.array_equal(a.ids, b.ids)


class TestRouting:
    def test_routes_reach_owner(self, pastry):
        rng = np.random.default_rng(0)
        for _ in range(100):
            src = int(rng.integers(0, pastry.n_slots))
            key = int(rng.integers(0, pastry.space))
            path = pastry.route(src, key)
            assert path[0] == src
            assert path[-1] == pastry.owner(key)

    def test_prefix_match_improves_monotonically(self, pastry):
        """Along a route, (prefix length, -id distance) never degrades —
        except possibly on the final leaf-set delivery hop, which may
        cross a digit boundary."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            src = int(rng.integers(0, pastry.n_slots))
            key = int(rng.integers(0, pastry.space))
            key_digits = digits_of(key, pastry.base_bits, pastry.n_digits)
            path = pastry.route(src, key)
            scores = [
                (
                    common_prefix_len(pastry.digits[s], key_digits),
                    -pastry._id_distance(int(pastry.ids[s]), key),
                )
                for s in path[:-1]
            ]
            assert all(s2 >= s1 for s1, s2 in zip(scores, scores[1:]))

    def test_hop_count_small(self, pastry):
        rng = np.random.default_rng(2)
        hops = [
            len(pastry.route(int(rng.integers(0, pastry.n_slots)),
                             int(rng.integers(0, pastry.space)))) - 1
            for _ in range(100)
        ]
        assert np.mean(hops) <= pastry.n_digits

    def test_route_to_own_key(self, pastry):
        key = int(pastry.ids[4])
        assert pastry.route(4, key) == [4]

    def test_lookup_latency_with_processing(self, pastry):
        key = int(pastry.ids[20]) + 1
        path = pastry.route(0, key)
        nd = np.full(pastry.n_slots, 5.0)
        assert pastry.lookup_latency(0, key, nd) == pytest.approx(
            pastry.path_latency(path) + 5.0 * (len(path) - 1)
        )


class TestProximityAware:
    def test_proximity_tables_prefer_closer(self, small_oracle):
        plain = PastryOverlay.build(small_oracle, RngRegistry(5).stream("p"))
        prox = PastryOverlay(
            small_oracle,
            plain.embedding.copy(),
            plain.ids.copy(),
            proximity_aware=True,
        )
        emb = plain.embedding
        mat = small_oracle.dense()

        def mean_entry_latency(ov):
            total, count = 0.0, 0
            for i in range(ov.n_slots):
                for j in ov.routing_tables[i].values():
                    total += mat[emb[i], emb[j]]
                    count += 1
            return total / count

        assert mean_entry_latency(prox) <= mean_entry_latency(plain)

    def test_proximity_routing_still_correct(self, small_oracle, rngs):
        prox = PastryOverlay.build(small_oracle, rngs.stream("pp"), proximity_aware=True)
        rng = np.random.default_rng(3)
        for _ in range(50):
            src = int(rng.integers(0, prox.n_slots))
            key = int(rng.integers(0, prox.space))
            assert prox.route(src, key)[-1] == prox.owner(key)

    def test_swap_preserves_structure(self, pastry):
        edges = set(pastry.iter_edges())
        pastry.swap_embedding(2, 30)
        assert set(pastry.iter_edges()) == edges

    def test_copy_independent(self, pastry):
        clone = pastry.copy()
        clone.swap_embedding(0, 1)
        assert pastry.host_at(0) != clone.host_at(0)
