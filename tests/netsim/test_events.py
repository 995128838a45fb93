"""EventQueue ordering, cancellation, and bookkeeping."""

from math import inf, nan

import pytest

from repro.netsim.events import EventQueue


def test_empty_queue():
    q = EventQueue()
    assert len(q) == 0
    assert not q
    assert q.pop_due(inf) is None
    with pytest.raises(IndexError):
        q.pop()


def test_orders_by_time():
    q = EventQueue()
    q.push(3.0, lambda: None)
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert [q.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]


def test_ties_broken_by_insertion_order():
    q = EventQueue()
    out = []
    q.push(1.0, out.append, ("a",))
    q.push(1.0, out.append, ("b",))
    q.push(1.0, out.append, ("c",))
    while q:
        ev = q.pop()
        ev.callback(*ev.args)
    assert out == ["a", "b", "c"]


def test_same_timestamp_tiebreak_survives_interleaved_pops_and_cancels():
    """Insertion order at one timestamp is stable under queue churn.

    The message transport relies on this: at ``latency_scale=0`` a whole
    probe cascade shares one timestamp and must replay in send order
    even while unrelated events are pushed, popped, and cancelled.
    """
    q = EventQueue()
    out = []
    early = q.push(1.0, out.append, ("early",))
    q.push(2.0, out.append, ("a",))
    doomed = q.push(2.0, out.append, ("doomed",))
    q.push(2.0, out.append, ("b",))
    ev = q.pop()  # interleaved pop of the earlier event
    ev.callback(*ev.args)
    q.push(2.0, out.append, ("c",))
    doomed.cancel()
    q.push(2.0, out.append, ("d",))
    while q:
        ev = q.pop()
        ev.callback(*ev.args)
    assert out == ["early", "a", "b", "c", "d"]
    assert early.time == 1.0


def test_cancel_after_pop_is_noop():
    """A handle whose event already fired cannot corrupt the live count.

    Regression: protocol code cancels its timeout handle while running
    *inside* that timeout's callback; the double-decrement used to drive
    ``_live`` negative, making the queue report empty with events still
    heaped (an infinite ``run_until`` spin in the simulator).
    """
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    ev = q.pop()
    assert ev.time == 1.0
    assert h.cancel() is False  # already fired: dead, not cancellable
    assert not h.pending
    assert len(q) == 1
    assert q
    assert q.pop().time == 2.0


def test_negative_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(-1.0, lambda: None)


@pytest.mark.parametrize("time", [nan, inf])
def test_non_finite_time_rejected(time):
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(time, lambda: None)
    assert len(q) == 0


def test_len_counts_live_events():
    q = EventQueue()
    h1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    h1.cancel()
    assert len(q) == 1


def test_cancelled_events_skipped():
    q = EventQueue()
    h1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    h1.cancel()
    assert q.pop().time == 2.0


def test_cancel_is_idempotent():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    assert h.cancel() is True
    assert h.cancel() is False


def test_handle_reports_pending():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    assert h.pending
    h.cancel()
    assert not h.pending


def test_clear_resets():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.pop_due(inf) is None


def test_cancel_after_clear_is_noop():
    """A handle retained across ``clear()`` cannot corrupt the live count.

    Regression: cleared events stayed un-cancelled, so a late ``cancel()``
    drove ``_live`` to -1 — ``len(q)`` raised, and after the next push
    the queue read as empty with a live event heaped, which
    ``Simulator.run()``/``step()`` then skipped.
    """
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    q.clear()
    assert not h.pending
    assert h.cancel() is False
    assert len(q) == 0
    q.push(2.0, lambda: None)
    assert len(q) == 1
    assert q
    assert q.pop().time == 2.0


def test_pop_due_respects_the_horizon():
    q = EventQueue()
    dead = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.push(5.0, lambda: None)
    dead.cancel()
    assert q.pop_due(1.5) is None
    assert q.heap_size == 2  # the cancelled head was discarded on the way
    assert q.pop_due(2.0).time == 2.0  # due *at* t counts
    assert q.pop_due(4.9) is None
    assert len(q) == 1
    assert (q.pushes, q.pops, q.cancels) == (3, 1, 1)


def test_events_order_by_time_then_seq():
    q = EventQueue()
    q.push(2.0, lambda: None)
    q.push(1.0, lambda: None)
    q.push(1.0, lambda: None)
    a, b, c = (q.pop() for _ in range(3))
    assert [(ev.time, ev.seq) for ev in (a, b, c)] == [(1.0, 1), (1.0, 2), (2.0, 0)]
    assert a < b < c  # the Event ordering contract, off the heap too
    assert sorted([c, b, a]) == [a, b, c]


def test_args_carried():
    q = EventQueue()
    q.push(1.0, lambda a, b: None, (1, 2))
    ev = q.pop()
    assert ev.args == (1, 2)


def test_post_and_push_share_one_sequence():
    """``post`` is ``push`` without the handle: the same validation,
    the same tie-break sequence and the same live count."""
    q = EventQueue()
    out = []
    ev = q.post(1.0, out.append, ("posted",))
    handle = q.push(1.0, out.append, ("pushed",))
    assert handle._event.seq == ev.seq + 1
    assert len(q) == 2 and q.pushes == 2
    with pytest.raises(ValueError):
        q.post(nan, out.append, ("bad",))
    while q:
        popped = q.pop()
        popped.callback(*popped.args)
    assert out == ["posted", "pushed"]
