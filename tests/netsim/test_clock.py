"""Clock invariants: monotonicity and rejection of rewinds."""

from math import inf, nan

import pytest

from repro.netsim.clock import Clock


def test_starts_at_zero_by_default():
    assert Clock().now == 0.0


def test_starts_at_given_time():
    assert Clock(5.0).now == 5.0


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        Clock(-1.0)


def test_advance_to_moves_forward():
    c = Clock()
    c.advance_to(3.5)
    assert c.now == 3.5


def test_advance_to_same_time_allowed():
    c = Clock(2.0)
    c.advance_to(2.0)
    assert c.now == 2.0


def test_advance_to_rewind_rejected():
    c = Clock(2.0)
    with pytest.raises(ValueError):
        c.advance_to(1.0)


@pytest.mark.parametrize("start", [nan, inf])
def test_non_finite_start_rejected(start):
    with pytest.raises(ValueError):
        Clock(start)


def test_advance_to_nan_rejected():
    c = Clock(2.0)
    with pytest.raises(ValueError):
        c.advance_to(nan)
    assert c.now == 2.0
