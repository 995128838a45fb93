"""Chord: finger structure, routing correctness, latency accounting."""

import numpy as np
import pytest

from repro.netsim.rng import RngRegistry
from repro.overlay.chord import ChordOverlay


class TestConstruction:
    def test_ids_sorted_by_slot(self, chord):
        assert np.all(np.diff(chord.ids) > 0)

    def test_connected(self, chord):
        assert chord.is_connected()

    def test_ring_edges_present(self, chord):
        n = chord.n_slots
        for i in range(n):
            assert chord.has_edge(i, (i + 1) % n)

    def test_finger_targets_are_neighbors(self, chord):
        for i in range(chord.n_slots):
            for j in chord.fingers[i]:
                assert chord.has_edge(i, j)

    def test_fingers_sorted_by_cw_distance(self, chord):
        for i in range(chord.n_slots):
            dists = [(int(chord.ids[j]) - int(chord.ids[i])) % chord.space
                     for j in chord.fingers[i]]
            assert dists == sorted(dists)

    def test_finger_is_successor_of_start(self, chord):
        """Every finger target owns some id of the form id_i + 2^k."""
        for i in range(0, chord.n_slots, 7):
            starts = {(int(chord.ids[i]) + (1 << k)) % chord.space for k in range(chord.bits)}
            owners = {chord.owner(s) for s in starts}
            assert set(chord.fingers[i]) <= owners

    def test_unsorted_ids_rejected(self, small_oracle):
        with pytest.raises(ValueError):
            ChordOverlay(small_oracle, np.arange(4), np.array([5, 3, 9, 12]), bits=8)

    def test_id_out_of_space_rejected(self, small_oracle):
        with pytest.raises(ValueError):
            ChordOverlay(small_oracle, np.arange(3), np.array([1, 2, 300]), bits=8)

    def test_deterministic(self, small_oracle):
        a = ChordOverlay.build(small_oracle, RngRegistry(5).stream("c"))
        b = ChordOverlay.build(small_oracle, RngRegistry(5).stream("c"))
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.embedding, b.embedding)


class TestOwnership:
    def test_exact_id_owned_by_holder(self, chord):
        for i in (0, 3, chord.n_slots - 1):
            assert chord.owner(int(chord.ids[i])) == i

    def test_key_between_ids_owned_by_successor(self, chord):
        key = int(chord.ids[4]) + 1
        if key != int(chord.ids[5]):
            assert chord.owner(key) == 5

    def test_wraparound_key(self, chord):
        key = int(chord.ids[-1]) + 1
        if key < chord.space:
            assert chord.owner(key) == 0


class TestRouting:
    def test_routes_reach_owner(self, chord):
        rng = np.random.default_rng(0)
        for _ in range(100):
            src = int(rng.integers(0, chord.n_slots))
            key = int(rng.integers(0, chord.space))
            path = chord.route(src, key)
            assert path[0] == src
            assert path[-1] == chord.owner(key)

    def test_path_edges_exist(self, chord):
        rng = np.random.default_rng(1)
        for _ in range(50):
            src = int(rng.integers(0, chord.n_slots))
            key = int(rng.integers(0, chord.space))
            path = chord.route(src, key)
            for a, b in zip(path, path[1:]):
                assert chord.has_edge(a, b)

    def test_hop_count_logarithmic(self, chord):
        rng = np.random.default_rng(2)
        hops = [
            len(chord.route(int(rng.integers(0, chord.n_slots)),
                            int(rng.integers(0, chord.space)))) - 1
            for _ in range(200)
        ]
        # n=64: mean hops should be around log2(64)/2 = 3, certainly < 8
        assert np.mean(hops) < 8

    def test_path_moves_clockwise(self, chord):
        """Greedy routing never overshoots the key."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            src = int(rng.integers(0, chord.n_slots))
            key = int(rng.integers(0, chord.space))
            path = chord.route(src, key)
            dist = [(key - int(chord.ids[s])) % chord.space for s in path[:-1]]
            assert all(d2 < d1 for d1, d2 in zip(dist, dist[1:])) or len(path) <= 2

    def test_route_to_own_key(self, chord):
        key = int(chord.ids[7])
        assert chord.route(7, key) == [7]


class TestLatency:
    def test_path_latency_sums_links(self, chord):
        path = chord.route(0, int(chord.ids[20]) + 1)
        expected = sum(chord.latency(a, b) for a, b in zip(path, path[1:]))
        assert chord.path_latency(path) == pytest.approx(expected)

    def test_processing_charged_at_receivers(self, chord):
        path = chord.route(0, int(chord.ids[20]) + 1)
        nd = np.full(chord.n_slots, 10.0)
        base = chord.path_latency(path)
        assert chord.path_latency(path, nd) == pytest.approx(base + 10.0 * (len(path) - 1))

    def test_lookup_latencies_shape_validated(self, chord):
        with pytest.raises(ValueError):
            chord.lookup_latencies(np.array([1, 2, 3]))


class TestPropGCompatibility:
    def test_swap_preserves_fingers_and_edges(self, chord):
        edges = set(chord.iter_edges())
        fingers = [list(f) for f in chord.fingers]
        chord.swap_embedding(3, 40)
        assert set(chord.iter_edges()) == edges
        assert [list(f) for f in chord.fingers] == fingers

    def test_swap_changes_route_latency_not_path(self, chord):
        key = int(chord.ids[33]) + 1
        path_before = chord.route(5, key)
        chord.swap_embedding(10, 50)
        assert chord.route(5, key) == path_before

    def test_copy_independent(self, chord):
        clone = chord.copy()
        clone.swap_embedding(0, 1)
        assert chord.host_at(0) != clone.host_at(0) or chord.host_at(1) != clone.host_at(1)
        assert np.array_equal(clone.ids, chord.ids)
