"""PNS Chord: proximity finger selection, routing correctness, refresh."""

import numpy as np
import pytest

from repro.baselines.pns import PNSChordOverlay
from repro.netsim.rng import RngRegistry
from repro.overlay.chord import ChordOverlay


@pytest.fixture()
def pns(small_oracle, rngs):
    return PNSChordOverlay.build(small_oracle, rngs.stream("pns"))


class TestFingerSelection:
    def test_routing_still_correct(self, pns):
        rng = np.random.default_rng(0)
        for _ in range(100):
            src = int(rng.integers(0, pns.n_slots))
            key = int(rng.integers(0, pns.space))
            assert pns.route(src, key)[-1] == pns.owner(key)

    def test_successor_always_kept(self, pns):
        for i in range(pns.n_slots):
            assert (i + 1) % pns.n_slots in pns.fingers[i]

    def test_fingers_cheaper_than_plain_chord(self, small_oracle):
        """PNS mean finger latency must beat plain Chord on the same ring."""
        plain = ChordOverlay.build(small_oracle, RngRegistry(5).stream("c"))
        pns = PNSChordOverlay(small_oracle, plain.embedding.copy(), plain.ids.copy(), plain.bits)

        def mean_finger_latency(ov):
            total, count = 0.0, 0
            for i in range(ov.n_slots):
                for j in ov.fingers[i]:
                    total += ov.latency(i, j)
                    count += 1
            return total / count

        assert mean_finger_latency(pns) < mean_finger_latency(plain)

    def test_fingers_stay_in_interval(self, pns):
        """Every non-successor finger must be a legal interval member
        (its id lies in some [id_i + 2^k, id_i + 2^(k+1)) interval)."""
        for i in range(0, pns.n_slots, 7):
            base = int(pns.ids[i])
            intervals = [
                ((base + (1 << k)) % pns.space, (base + (1 << (k + 1))) % pns.space)
                for k in range(pns.bits)
            ]
            for j in pns.fingers[i]:
                if j == (i + 1) % pns.n_slots:
                    continue
                idj = int(pns.ids[j])
                ok = any(
                    (lo <= idj < hi) if lo < hi else (idj >= lo or idj < hi)
                    for lo, hi in intervals
                )
                assert ok


class TestRefresh:
    def test_refresh_tracks_embedding_changes(self, pns):
        """After embedding churn, refresh re-optimizes finger latency."""
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b = rng.integers(0, pns.n_slots, size=2)
            if a != b:
                pns.swap_embedding(int(a), int(b))
        def mean_finger_latency(ov):
            total, count = 0.0, 0
            for i in range(ov.n_slots):
                for j in ov.fingers[i]:
                    total += ov.latency(i, j)
                    count += 1
            return total / count

        stale = mean_finger_latency(pns)
        pns.refresh()
        assert mean_finger_latency(pns) <= stale

    def test_refresh_keeps_routing_correct(self, pns):
        pns.swap_embedding(0, 5)
        pns.refresh()
        rng = np.random.default_rng(2)
        for _ in range(50):
            src = int(rng.integers(0, pns.n_slots))
            key = int(rng.integers(0, pns.space))
            assert pns.route(src, key)[-1] == pns.owner(key)

    def test_refresh_keeps_connectivity(self, pns):
        pns.refresh()
        assert pns.is_connected()
