"""neighborQ: selection order, success/failure/churn priority rules."""

import numpy as np
import pytest

from repro.core.neighbor_queue import NeighborQueue


def _q(neighbors, seed=0):
    return NeighborQueue(neighbors, np.random.default_rng(seed))


def test_initial_order_is_a_permutation():
    q = _q([1, 2, 3, 4, 5])
    assert sorted(q.snapshot()) == [1, 2, 3, 4, 5]


def test_initial_order_randomized():
    orders = {tuple(_q([1, 2, 3, 4, 5, 6], seed=s).snapshot()) for s in range(10)}
    assert len(orders) > 1


def test_select_returns_head(aggregate=None):
    q = _q([7, 8, 9])
    assert q.select() == q.snapshot()[0]


def test_select_empty_raises():
    q = _q([])
    with pytest.raises(IndexError):
        q.select()


def test_failure_moves_to_tail():
    q = _q([1, 2, 3])
    head = q.select()
    q.on_failure(head)
    assert q.snapshot()[-1] == head
    assert q.select() != head


def test_success_keeps_near_front():
    q = _q([1, 2, 3])
    head = q.select()
    q.on_success(head)
    assert q.select() == head  # decreased priority -> still first


def test_success_after_failures_recovers_priority():
    q = _q([1, 2, 3])
    s = q.select()
    q.on_failure(s)  # s at tail
    for _ in range(5):
        q.on_success(s)  # bumped forward by 5
    assert q.select() == s


def test_new_neighbor_goes_to_front():
    q = _q([1, 2, 3])
    q.on_new_neighbor(99)
    assert q.select() == 99


def test_sync_drops_departed_and_fronts_new():
    q = _q([1, 2, 3])
    q.sync([2, 3, 7])
    assert sorted(q.snapshot()) == [2, 3, 7]
    assert q.select() == 7  # new arrival probed first


def test_sync_idempotent():
    q = _q([1, 2, 3])
    before = q.snapshot()
    q.sync([1, 2, 3])
    assert q.snapshot() == before


def test_contains_and_len():
    q = _q([4, 5])
    assert 4 in q and 5 in q and 6 not in q
    assert len(q) == 2


class TestSyncByTupleIdentity:
    """``sync`` skips the reconciliation when handed the very tuple it
    reconciled last — and only then."""

    def test_same_tuple_is_a_no_op(self):
        nbrs = (1, 2, 3, 4)
        q = _q(nbrs)
        q.sync(nbrs)
        q.on_failure(q.select())
        before = (q.snapshot(), dict(q._prio), q._seq)
        q.sync(nbrs)
        assert (q.snapshot(), q._prio, q._seq) == before

    def test_stranger_pushed_to_the_front_is_dropped_again(self):
        nbrs = (1, 2, 3)
        q = _q(nbrs)
        q.sync(nbrs)
        q.on_new_neighbor(9)  # not a neighbor: the next sync must notice
        q.sync(nbrs)
        assert 9 not in q and sorted(q.snapshot()) == [1, 2, 3]
        q.on_new_neighbor(2)  # a member: only its priority moves
        q.sync(nbrs)
        assert q.select() == 2

    def test_equal_but_distinct_tuple_is_reconciled(self):
        q = _q((1, 2, 3))
        q.sync((1, 2, 3))
        q.sync((1, 2, 5))
        assert sorted(q.snapshot()) == [1, 2, 5] and q.select() == 5

    def test_a_list_is_never_remembered(self):
        nbrs = [1, 2, 3]
        q = _q(nbrs)
        q.sync(nbrs)
        nbrs[2] = 7  # same object, new content
        q.sync(nbrs)
        assert sorted(q.snapshot()) == [1, 2, 7]
