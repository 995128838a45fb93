"""Identifier-space helpers."""

import numpy as np
import pytest

from repro.overlay.ids import (
    common_prefix_len,
    digits_of,
    unique_ids,
)


class TestUniqueIds:
    def test_distinct_and_in_range(self):
        rng = np.random.default_rng(0)
        ids = unique_ids(100, 10, rng)
        assert len(np.unique(ids)) == 100
        assert ids.min() >= 0 and ids.max() < 1024

    def test_dense_regime_full_space(self):
        rng = np.random.default_rng(0)
        ids = unique_ids(8, 3, rng)
        assert sorted(ids) == list(range(8))

    def test_too_many_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            unique_ids(9, 3, rng)

    def test_deterministic(self):
        a = unique_ids(50, 16, np.random.default_rng(7))
        b = unique_ids(50, 16, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestDigits:
    def test_digits_roundtrip(self):
        d = digits_of(0xBEEF, 4, 4)
        assert d == (0xB, 0xE, 0xE, 0xF)

    def test_leading_zeros(self):
        assert digits_of(1, 4, 4) == (0, 0, 0, 1)

    def test_common_prefix(self):
        assert common_prefix_len((1, 2, 3), (1, 2, 4)) == 2
        assert common_prefix_len((1, 2), (1, 2)) == 2
        assert common_prefix_len((5,), (6,)) == 0
