"""Chord failure-aware routing: successor lists, dead-node skipping."""

import numpy as np
import pytest

from repro.core.exchange import execute_prop_g


class TestSuccessorList:
    def test_contents(self, chord):
        lst = chord.successor_list(5, 3)
        assert lst == [6, 7, 8]

    def test_wraps(self, chord):
        n = chord.n_slots
        assert chord.successor_list(n - 1, 2) == [0, 1]

    def test_size_validated(self, chord):
        with pytest.raises(ValueError):
            chord.successor_list(0, 0)
        with pytest.raises(ValueError):
            chord.successor_list(0, chord.n_slots)


class TestAliveOwner:
    def test_all_alive_matches_plain_owner(self, chord):
        alive = np.ones(chord.n_slots, dtype=bool)
        rng = np.random.default_rng(0)
        for _ in range(30):
            key = int(rng.integers(0, chord.space))
            assert chord.owner_of_key_alive(key, alive) == chord.owner(key)

    def test_dead_owner_falls_to_next_alive(self, chord):
        alive = np.ones(chord.n_slots, dtype=bool)
        key = int(chord.ids[10])
        alive[10] = False
        assert chord.owner_of_key_alive(key, alive) == 11

    def test_all_dead_raises(self, chord):
        alive = np.zeros(chord.n_slots, dtype=bool)
        with pytest.raises(RuntimeError):
            chord.owner_of_key_alive(0, alive)


class TestFailureRouting:
    def _random_failures(self, chord, frac, seed):
        rng = np.random.default_rng(seed)
        alive = np.ones(chord.n_slots, dtype=bool)
        dead = rng.choice(chord.n_slots, size=int(frac * chord.n_slots), replace=False)
        alive[dead] = False
        return alive, rng

    def test_no_failures_matches_plain_route(self, chord):
        alive = np.ones(chord.n_slots, dtype=bool)
        rng = np.random.default_rng(1)
        for _ in range(30):
            src = int(rng.integers(0, chord.n_slots))
            key = int(rng.integers(0, chord.space))
            assert chord.route_with_failures(src, key, alive) == chord.route(src, key)

    @pytest.mark.parametrize("frac", [0.05, 0.15, 0.25])
    def test_lookups_survive_random_failures(self, chord, frac):
        alive, rng = self._random_failures(chord, frac, seed=2)
        for _ in range(50):
            src = int(rng.choice(np.flatnonzero(alive)))
            key = int(rng.integers(0, chord.space))
            path = chord.route_with_failures(src, key, alive)
            assert path[-1] == chord.owner_of_key_alive(key, alive)
            assert all(alive[s] for s in path)

    def test_dead_source_rejected(self, chord):
        alive = np.ones(chord.n_slots, dtype=bool)
        alive[3] = False
        with pytest.raises(ValueError):
            chord.route_with_failures(3, 0, alive)

    def test_broken_ring_detected(self, chord):
        """Killing a contiguous run longer than the successor list makes
        routing through that arc impossible."""
        alive = np.ones(chord.n_slots, dtype=bool)
        alive[10:30] = False  # 20 consecutive dead slots
        with pytest.raises(RuntimeError):
            # force traversal into the dead arc with a tiny successor list
            chord.route_with_failures(
                9, int(chord.ids[31]), alive, successor_list_size=2
            )

    def test_prop_g_does_not_hurt_resilience(self, chord):
        """PROP-G swaps embeddings only; which *slots* are routable under
        a failure pattern is untouched (the cited resilience concern)."""
        alive, rng = self._random_failures(chord, 0.15, seed=3)
        queries = [
            (int(rng.choice(np.flatnonzero(alive))), int(rng.integers(0, chord.space)))
            for _ in range(30)
        ]
        paths_before = [chord.route_with_failures(s, k, alive) for s, k in queries]
        for _ in range(25):
            u, v = rng.integers(0, chord.n_slots, size=2)
            if u != v:
                execute_prop_g(chord, int(u), int(v))
        paths_after = [chord.route_with_failures(s, k, alive) for s, k in queries]
        assert paths_before == paths_after  # identical slot paths
