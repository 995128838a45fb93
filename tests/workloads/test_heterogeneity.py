"""Bimodal heterogeneity: assignment, host/slot projection, weights."""

import numpy as np
import pytest

from repro.workloads.heterogeneity import (
    bimodal_processing_delay,
    capacity_weights_from_delay,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestAssignment:
    def test_fraction(self):
        het = bimodal_processing_delay(200, _rng(), fast_fraction=0.5)
        assert int(het.is_fast.sum()) == 100

    def test_delays(self):
        het = bimodal_processing_delay(100, _rng(), fast_ms=1.0, slow_ms=100.0)
        assert np.all(het.delay_ms[het.is_fast] == 1.0)
        assert np.all(het.delay_ms[~het.is_fast] == 100.0)

    def test_all_fast(self):
        het = bimodal_processing_delay(50, _rng(), fast_fraction=1.0)
        assert het.is_fast.all()

    def test_all_slow(self):
        het = bimodal_processing_delay(50, _rng(), fast_fraction=0.0)
        assert not het.is_fast.any()

    def test_validation(self):
        with pytest.raises(ValueError):
            bimodal_processing_delay(10, _rng(), fast_fraction=2.0)
        with pytest.raises(ValueError):
            bimodal_processing_delay(10, _rng(), fast_ms=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                bimodal_processing_delay(10, _rng(), slow_ms=bad)

    def test_deterministic(self):
        a = bimodal_processing_delay(100, _rng(3))
        b = bimodal_processing_delay(100, _rng(3))
        assert np.array_equal(a.is_fast, b.is_fast)


class TestSlotProjection:
    def test_slot_delays_follow_embedding(self):
        het = bimodal_processing_delay(10, _rng())
        emb = np.array([3, 1, 7])
        assert np.array_equal(het.slot_delays(emb), het.delay_ms[[3, 1, 7]])

    def test_fast_slots_track_swaps(self):
        het = bimodal_processing_delay(10, _rng(), fast_fraction=0.5)
        emb = np.arange(10)
        before = set(het.fast_slots(emb).tolist())
        # swap a fast host with a slow host: the slots trade categories
        fast_h = int(np.flatnonzero(het.is_fast)[0])
        slow_h = int(np.flatnonzero(~het.is_fast)[0])
        emb[fast_h], emb[slow_h] = emb[slow_h], emb[fast_h]
        after = set(het.fast_slots(emb).tolist())
        assert before != after
        assert (before - after) == {fast_h}
        assert (after - before) == {slow_h}

    def test_fast_and_slow_slots_partition(self):
        het = bimodal_processing_delay(20, _rng())
        emb = _rng(1).permutation(20)
        fast = set(het.fast_slots(emb).tolist())
        slow = set(het.slow_slots(emb).tolist())
        assert fast | slow == set(range(20))
        assert not fast & slow


class TestCapacityWeights:
    def test_fast_hosts_weighted(self):
        het = bimodal_processing_delay(10, _rng(), fast_fraction=0.5)
        emb = np.arange(10)
        w = capacity_weights_from_delay(het, emb, fast_weight=4.0)
        assert np.all(w[het.fast_slots(emb)] == 4.0)
        assert np.all(w[het.slow_slots(emb)] == 1.0)

    def test_weight_validated(self):
        het = bimodal_processing_delay(10, _rng())
        with pytest.raises(ValueError):
            capacity_weights_from_delay(het, np.arange(10), fast_weight=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_weight_must_be_finite(self, value):
        # NaN reached the overlay's degree weights as a cast warning
        het = bimodal_processing_delay(10, _rng())
        with pytest.raises(ValueError, match="finite and positive"):
            capacity_weights_from_delay(het, np.arange(10), fast_weight=value)
