"""Simulator execution semantics: ordering, run_until, periodic processes."""

from math import inf, nan

import pytest

from repro.netsim.engine import Simulator


def test_run_executes_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(5.0, out.append, "late")
    sim.schedule(1.0, out.append, "early")
    sim.run()
    assert out == ["early", "late"]
    assert sim.now == 5.0


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("delay", [nan, inf])
def test_schedule_non_finite_delay_rejected(delay):
    """Regression: ``nan < 0`` is false, so a NaN delay used to be
    accepted and its event fired between the t=1 and t=2 events."""
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, 1)
    with pytest.raises(ValueError):
        sim.schedule(delay, out.append, "bad")
    sim.schedule(2.0, out.append, 2)
    sim.run()
    assert out == [1, 2]


@pytest.mark.parametrize("delay", [-1.0, nan, inf])
def test_post_rejects_what_schedule_rejects(delay):
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.post(delay, lambda: None)
    assert not sim.queue


def test_post_and_schedule_interleave_in_insertion_order():
    sim = Simulator()
    out = []
    sim.post(1.0, out.append, "a")
    sim.schedule(1.0, out.append, "b")
    sim.post(1.0, out.append, "c")
    sim.run()
    assert out == ["a", "b", "c"]


@pytest.mark.parametrize("time", [nan, inf])
def test_schedule_at_non_finite_time_rejected(time):
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_at(time, lambda: None)
    assert not sim.queue


@pytest.mark.parametrize("time", [nan, inf])
def test_run_until_non_finite_time_rejected(time):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.run_until(time)
    assert sim.now == 0.0 and sim.events_executed == 0


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_executes_boundary_events():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, 1)
    sim.schedule(2.0, out.append, 2)
    sim.schedule(3.0, out.append, 3)
    sim.run_until(2.0)
    assert out == [1, 2]
    assert sim.now == 2.0


def test_run_until_advances_clock_with_no_events():
    sim = Simulator()
    sim.run_until(10.0)
    assert sim.now == 10.0


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(ValueError):
        sim.run_until(4.0)


def test_events_can_schedule_events():
    sim = Simulator()
    out = []

    def chain(n):
        out.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert out == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_run_max_events():
    sim = Simulator()
    out = []
    for i in range(5):
        sim.schedule(float(i), out.append, i)
    executed = sim.run(max_events=2)
    assert executed == 2
    assert out == [0, 1]


def test_events_executed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 4


class TestPeriodicProcess:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now))
        sim.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_period_change_from_callback_applies_to_next(self):
        sim = Simulator()
        ticks = []
        proc = None

        def cb():
            ticks.append(sim.now)
            proc.period = 20.0  # first firing widens subsequent gaps

        proc = sim.every(10.0, cb)
        sim.run_until(60.0)
        assert ticks == [10.0, 30.0, 50.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        ticks = []
        proc = sim.every(10.0, lambda: ticks.append(sim.now))
        sim.schedule(25.0, proc.stop)
        sim.run_until(100.0)
        assert ticks == [10.0, 20.0]
        assert not sim.queue  # the pending firing was cancelled

    def test_stop_from_inside_callback(self):
        sim = Simulator()
        ticks = []
        proc = None

        def cb():
            ticks.append(sim.now)
            if len(ticks) == 2:
                proc.stop()

        proc = sim.every(5.0, cb)
        sim.run_until(100.0)
        assert ticks == [5.0, 10.0]

    def test_stop_from_inside_callback_keeps_other_events_alive(self):
        """Stopping from inside the firing cancels an already-popped event.

        Regression: that cancel used to double-decrement the queue's live
        count, so events scheduled after the process silently never ran
        (the queue claimed to be empty) and ``run_until`` could spin
        forever on the orphaned heap entries.
        """
        sim = Simulator()
        ticks = []
        later = []
        proc = None

        def cb():
            ticks.append(sim.now)
            proc.stop()  # cancels the handle of the event firing right now

        proc = sim.every(5.0, cb)
        sim.schedule(7.0, later.append, "a")
        sim.schedule(9.0, later.append, "b")
        sim.run_until(100.0)
        assert ticks == [5.0]
        assert later == ["a", "b"]
        assert len(sim.queue) == 0
        assert not sim.queue

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)
