"""run_sweep's fan-out: ordering, determinism, errors, pool size, fallback.

The experiment body is swapped for a cheap module-level stand-in
(``_fake_run``: the square of the config's seed, ``ValueError`` for
seed 13) so these tests exercise the executor, not the simulator; being
module-level, it pickles into worker processes.  Real experiments
through the pool are covered by ``test_sweep.py`` and the
trace/span/monitor determinism tests.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.harness.sweep as sweep
from repro.harness.experiment import ExperimentConfig
from repro.harness.sweep import ProgressRollup, TaskEvent, run_sweep

_ran: list[int] = []


def _fake_run(config, measure_lookups=True):
    _ran.append(config.seed)
    if config.seed == 13:
        raise ValueError("kaput")
    return config.seed * config.seed


def _slow_run(config, measure_lookups=True):
    if config.seed != 13:
        time.sleep(0.1)
    return _fake_run(config, measure_lookups)


@pytest.fixture(autouse=True)
def fake_experiment(monkeypatch):
    monkeypatch.setattr(sweep, "run_experiment", _fake_run)
    _ran.clear()


def _configs(*seeds):
    return {f"t{s}": ExperimentConfig(seed=s) for s in seeds}


class _RecordingPool(ThreadPoolExecutor):
    """In-process stand-in for the process pool that records its size."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


@pytest.fixture
def pool_sizes(monkeypatch):
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.sizes = []
    return _RecordingPool.sizes


class TestSerial:
    def test_results_keyed_and_ordered_by_label(self):
        results = run_sweep(_configs(0, 1, 2, 3), workers=1)
        assert results == {"t0": 0, "t1": 1, "t2": 4, "t3": 9}
        assert list(results) == ["t0", "t1", "t2", "t3"]

    def test_empty_task_list(self):
        assert run_sweep({}, workers=4) == {}

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="kaput"):
            run_sweep(_configs(13), workers=1)

    def test_progress_events(self):
        events: list[TaskEvent] = []
        run_sweep(_configs(0, 1), workers=1, progress=events.append)
        assert [(e.label, e.status) for e in events] == [
            ("t0", "start"), ("t0", "done"), ("t1", "start"), ("t1", "done"),
        ]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(_configs(0), workers=-3)


class TestPool:
    def test_matches_serial(self):
        serial = run_sweep(_configs(*range(6)), workers=1)
        pooled = run_sweep(_configs(*range(6)), workers=3)
        assert pooled == serial
        assert list(pooled) == list(serial)

    def test_every_task_gets_start_and_done_event(self):
        events: list[TaskEvent] = []
        run_sweep(_configs(*range(5)), workers=2, progress=events.append)
        for label in ("t0", "t1", "t2", "t3", "t4"):
            statuses = [e.status for e in events if e.label == label]
            assert statuses == ["start", "done"]

    def test_task_exception_propagates_from_worker(self):
        with pytest.raises(ValueError, match="^kaput$"):
            run_sweep(_configs(2, 13), workers=2)

    def test_unstarted_configs_cancelled_on_error(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(sweep, "run_experiment", _slow_run)
        with pytest.raises(ValueError, match="kaput"):
            run_sweep(_configs(13, *range(10)), workers=2)
        assert pool_sizes == [2]
        assert 13 in _ran and len(_ran) < 11


class TestFallback:
    def test_unusable_pool_falls_back_to_serial(self, monkeypatch):
        def broken_executor(*args, **kwargs):
            raise OSError("no multiprocessing here")

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", broken_executor)
        events: list[TaskEvent] = []
        results = run_sweep(_configs(0, 1, 2), workers=3, progress=events.append)
        assert results == {"t0": 0, "t1": 1, "t2": 4}
        assert [e.status for e in events] == ["start", "done"] * 3


class TestProgressRollup:
    def test_counts_fold_from_events(self):
        rollup = ProgressRollup(3)
        rollup(TaskEvent("a", "start"))
        rollup(TaskEvent("a", "done", 2.0))
        rollup(TaskEvent("b", "start"))
        assert (rollup.started, rollup.done, rollup.elapsed_done) == (2, 1, [2.0])

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
        run_sweep(_configs(0, 1, 2), progress=rollup)
        assert rollup.done == 3
        assert len(rollup.elapsed_done) == 3

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            ProgressRollup(-1)


class TestEffectiveWorkers:
    """How many processes a sweep gets: never more than it has configs."""

    def test_clamped_to_task_count(self, pool_sizes):
        assert run_sweep(_configs(0, 1, 2), workers=8) == {"t0": 0, "t1": 1, "t2": 4}
        assert pool_sizes == [3]

    def test_one_is_serial(self, pool_sizes):
        run_sweep(_configs(*range(5)), workers=1)
        assert pool_sizes == []

    def test_zero_means_cpu_count(self, pool_sizes):
        cores = os.cpu_count() or 1
        run_sweep(_configs(*range(cores + 2)), workers=0)
        assert pool_sizes == ([] if cores == 1 else [cores])

    def test_no_tasks(self, pool_sizes):
        assert run_sweep({}, workers=4) == {}
        assert pool_sizes == []
