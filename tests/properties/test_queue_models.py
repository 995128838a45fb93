"""Model-based property tests for the two queue data structures.

Each test drives the real implementation and a brutally simple reference
model with the same random operation sequence and asserts observational
equivalence — the strongest cheap evidence that cancellation, priority
arithmetic, and sync rules hold under arbitrary interleavings.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbor_queue import NeighborQueue
from repro.netsim.events import EventQueue


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_event_queue_matches_sorted_list_model(data):
    """Random push / cancel / pop / pop-due sequences against a
    sorted list of ``(time, uid)``.

    Times come from a five-value grid so most sequences hold several
    events at one timestamp: the model's ``(time, uid)`` order *is*
    insertion order there, which is what the determinism bridge needs
    from the heap's ``(time, seq)`` key.
    """
    q = EventQueue()
    model: list[tuple[float, int]] = []  # live events, kept sorted
    handles = {}
    uid = 0
    fired: list[int] = []
    pushes = pops = cancels = 0

    def fire_expected(ev):
        nonlocal pops
        ev.callback(*ev.args)
        expected = model.pop(0)
        pops += 1
        assert (ev.time, fired[-1]) == expected

    n_ops = data.draw(st.integers(1, 60))
    for _ in range(n_ops):
        op = data.draw(st.sampled_from(["push", "pop", "pop_due", "cancel"]))
        if op == "push":
            t = data.draw(st.sampled_from([0.0, 1.0, 2.5, 2.5 + 1e-9, 100.0]))
            handles[uid] = q.push(t, fired.append, (uid,))
            model.append((t, uid))
            model.sort()
            uid += 1
            pushes += 1
        elif op == "pop":
            if model:
                fire_expected(q.pop())
            else:
                assert len(q) == 0
        elif op == "pop_due":
            t = data.draw(st.sampled_from([0.0, 1.0, 2.5, 50.0, 100.0]))
            ev = q.pop_due(t)
            if model and model[0][0] <= t:
                fire_expected(ev)
            else:
                assert ev is None
        elif op == "cancel" and handles:
            which = data.draw(st.sampled_from(sorted(handles)))
            live = any(u == which for _, u in model)
            assert handles[which].pending is live
            assert handles[which].cancel() is live  # fired or cancelled: no-op
            if live:
                model[:] = [(t, u) for t, u in model if u != which]
                cancels += 1
        assert len(q) == len(model)
        assert bool(q) is bool(model)
        assert (q.pushes, q.pops, q.cancels) == (pushes, pops, cancels)
        assert q.heap_size >= len(model)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_neighbor_queue_matches_priority_model(data):
    members = data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    q = NeighborQueue(members, rng)

    # model: slot -> (priority, seq); mirror the documented semantics
    model = {s: (0, i) for i, s in enumerate(q.snapshot())}
    seq = len(model)

    n_ops = data.draw(st.integers(1, 40))
    for _ in range(n_ops):
        op = data.draw(st.sampled_from(["select", "success", "failure", "new", "sync"]))
        if op == "select":
            if model:
                assert q.select() == min(model, key=model.__getitem__)
        elif op == "success" and model:
            s = data.draw(st.sampled_from(sorted(model)))
            q.on_success(s)
            p, sq = model[s]
            model[s] = (p - 1, sq)
        elif op == "failure" and model:
            s = data.draw(st.sampled_from(sorted(model)))
            q.on_failure(s)
            tail = max((p for p, _ in model.values()), default=0)
            model[s] = (max(tail, 0) + 1, seq)
            seq += 1
        elif op == "new":
            s = data.draw(st.integers(31, 60))
            if s not in model:
                q.on_new_neighbor(s)
                model[s] = (-1_000_000, seq)
                seq += 1
        elif op == "sync":
            keep = data.draw(st.lists(st.sampled_from(sorted(model) if model else [0]),
                                      unique=True)) if model else []
            extra = data.draw(st.lists(st.integers(61, 90), max_size=3, unique=True))
            target = set(keep) | set(extra)
            if not target:
                continue
            q.sync(target)
            for s in list(model):
                if s not in target:
                    del model[s]
            for s in sorted(target):
                if s not in model:
                    model[s] = (-1_000_000, seq)
                    seq += 1
        assert len(q) == len(model)
        assert set(q.snapshot()) == set(model)
