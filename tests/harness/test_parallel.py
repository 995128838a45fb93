"""Parallel task runner: ordering, determinism, crash/timeout robustness.

Task bodies live at module level so worker processes can unpickle them.
Pool tests pin the ``fork`` context: it is always available on Linux
and keeps the suite independent of the interpreter's default.
"""

import multiprocessing
import os
import time

import pytest

from repro.harness.parallel import (
    ProgressRollup,
    Task,
    TaskError,
    TaskEvent,
    effective_workers,
    run_tasks,
)

FORK = multiprocessing.get_context("fork")


def _square(x):
    return x * x


def _boom(msg):
    raise ValueError(msg)


def _hang(seconds):
    time.sleep(seconds)
    return "woke"


def _crash_unless_marker(marker_path):
    """Hard-kill the worker on the first attempt, succeed on the retry."""
    if os.path.exists(marker_path):
        return "recovered"
    with open(marker_path, "w") as fh:
        fh.write("attempted")
    os._exit(13)


def _always_crash():
    os._exit(13)


def _tasks(n):
    return [Task(f"t{i}", _square, (i,)) for i in range(n)]


class TestSerial:
    def test_results_keyed_and_ordered_by_label(self):
        results = run_tasks(_tasks(4), workers=1)
        assert results == {"t0": 0, "t1": 1, "t2": 4, "t3": 9}
        assert list(results) == ["t0", "t1", "t2", "t3"]

    def test_empty_task_list(self):
        assert run_tasks([], workers=4) == {}

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            run_tasks([Task("x", _square, (1,)), Task("x", _square, (2,))])

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="kaput"):
            run_tasks([Task("bad", _boom, ("kaput",))], workers=1)

    def test_progress_events(self):
        events: list[TaskEvent] = []
        run_tasks(_tasks(2), workers=1, progress=events.append)
        assert [(e.label, e.status) for e in events] == [
            ("t0", "start"), ("t0", "done"), ("t1", "start"), ("t1", "done"),
        ]


class TestPool:
    def test_matches_serial(self):
        serial = run_tasks(_tasks(6), workers=1)
        pooled = run_tasks(_tasks(6), workers=3, mp_context=FORK)
        assert pooled == serial
        assert list(pooled) == list(serial)

    def test_every_task_gets_start_and_done_event(self):
        events: list[TaskEvent] = []
        run_tasks(_tasks(5), workers=2, progress=events.append, mp_context=FORK)
        for label in ("t0", "t1", "t2", "t3", "t4"):
            statuses = [e.status for e in events if e.label == label]
            assert statuses == ["start", "done"]

    def test_task_exception_propagates_from_worker(self):
        tasks = [Task("ok", _square, (2,)), Task("bad", _boom, ("kaput",))]
        with pytest.raises(ValueError, match="kaput"):
            run_tasks(tasks, workers=2, mp_context=FORK)

    def test_worker_crash_retried_then_recovers(self, tmp_path):
        marker = str(tmp_path / "marker")
        events: list[TaskEvent] = []
        results = run_tasks(
            [Task("fragile", _crash_unless_marker, (marker,))],
            workers=2, max_retries=1, progress=events.append, mp_context=FORK,
        )
        assert results == {"fragile": "recovered"}
        assert "retry" in [e.status for e in events]

    def test_worker_crash_exhausts_retries(self):
        with pytest.raises(TaskError, match="fragile"):
            run_tasks(
                [Task("fragile", _always_crash)],
                workers=2, max_retries=1, mp_context=FORK,
            )

    def test_hung_task_times_out(self):
        started = time.monotonic()
        with pytest.raises(TaskError, match="sleeper"):
            run_tasks(
                [Task("sleeper", _hang, (60.0,))],
                workers=2, task_timeout=0.5, max_retries=0, mp_context=FORK,
            )
        assert time.monotonic() - started < 30.0  # pool torn down, not waited out

    def test_finished_siblings_survive_a_timeout(self):
        # the quick task (queued after the hung one) completes on the
        # second worker while the hung one times out; its result must be
        # salvaged from the condemned pool, not lost
        tasks = [Task("sleeper", _hang, (60.0,)), Task("quick", _square, (7,))]
        events: list[TaskEvent] = []
        with pytest.raises(TaskError, match="sleeper"):
            run_tasks(tasks, workers=2, task_timeout=3.0, max_retries=0,
                      progress=events.append, mp_context=FORK)
        assert ("quick", "done") in [(e.label, e.status) for e in events]


class TestFallback:
    def test_unusable_pool_falls_back_to_serial(self, monkeypatch):
        import repro.harness.parallel as par

        def broken_executor(*args, **kwargs):
            raise OSError("no multiprocessing here")

        monkeypatch.setattr(par, "ProcessPoolExecutor", broken_executor)
        events: list[TaskEvent] = []
        results = run_tasks(_tasks(3), workers=3, progress=events.append)
        assert results == {"t0": 0, "t1": 1, "t2": 4}
        assert all(e.status in ("start", "done") for e in events)


class TestProgressRollup:
    def test_counts_fold_from_events(self):
        rollup = ProgressRollup(3)
        rollup(TaskEvent("a", "start"))
        rollup(TaskEvent("a", "done", 2.0))
        rollup(TaskEvent("b", "start"))
        rollup(TaskEvent("b", "retry", 1.0, "worker process died"))
        assert (rollup.started, rollup.done, rollup.retries) == (2, 1, 1)

    def test_eta_from_mean_elapsed(self):
        rollup = ProgressRollup(4)
        rollup(TaskEvent("a", "done", 2.0))
        rollup(TaskEvent("b", "done", 4.0))
        assert rollup.eta_seconds() == pytest.approx(6.0)  # 2 left * mean 3s
        assert rollup.eta_seconds(workers=2) == pytest.approx(3.0)

    def test_eta_none_before_first_completion(self):
        assert ProgressRollup(4).eta_seconds() is None

    def test_render_line(self):
        rollup = ProgressRollup(2)
        rollup(TaskEvent("seed=1", "start"))
        rollup(TaskEvent("seed=1", "done", 3.0))
        line = rollup.render()
        assert line.startswith("[1/2]")
        assert "eta ~3s" in line

    def test_render_complete_drops_eta(self):
        rollup = ProgressRollup(1)
        rollup(TaskEvent("t", "done", 3.0))
        assert rollup.render() == "[1/1]"

    def test_chain_updates_then_forwards(self):
        rollup = ProgressRollup(1)
        seen: list[int] = []
        chained = rollup.chain(lambda event: seen.append(rollup.done))
        chained(TaskEvent("t", "done", 1.0))
        assert seen == [1]  # rollup already updated when forwarded

    def test_rollup_as_progress_callback(self):
        rollup = ProgressRollup(3)
        run_tasks(_tasks(3), progress=rollup)
        assert rollup.done == 3
        assert len(rollup.elapsed_done) == 3

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            ProgressRollup(-1)


class TestEffectiveWorkers:
    def test_clamped_to_task_count(self):
        assert effective_workers(8, 3) == 3

    def test_one_is_serial(self):
        assert effective_workers(1, 100) == 1

    def test_zero_means_cpu_count(self):
        assert effective_workers(0, 1000) == min(os.cpu_count() or 1, 1000)

    def test_no_tasks(self):
        assert effective_workers(4, 0) == 1
