"""Parallel execution of independent experiment tasks.

Every sweep and every multi-seed replication is embarrassingly parallel:
each labelled task builds its own world from its own config/seed and
never touches another task's state.  :func:`run_tasks` is the single
primitive the harness routes that workload through — a
``ProcessPoolExecutor``-backed fan-out with the robustness a long
benchmark run needs:

* ``workers=1`` executes in-process, exactly as the old serial loops
  did, and is the default everywhere.
* Results are keyed and ordered by task label, so the output is
  byte-identical regardless of worker count or completion order
  (each task is deterministic in its own arguments).
* Worker crashes (a segfaulting process, an OOM kill) and per-task
  timeouts are retried in a fresh pool up to ``max_retries`` times
  before :class:`TaskError` is raised; ordinary exceptions raised *by*
  the task are deterministic and propagate immediately, as they would
  serially.
* Platforms without usable multiprocessing (no ``/dev/shm``, no fork —
  some sandboxes and embedded interpreters) fall back to the serial
  path instead of failing.
* Progress is reported through structured :class:`TaskEvent` callbacks
  (label, status, elapsed seconds) rather than bare label strings, so
  callers can render retries and failures, not just starts.

Task callables must be picklable (module-level functions) when
``workers > 1``; the harness's own task functions
(:func:`repro.harness.sweep._sweep_task`,
:func:`repro.harness.replicate._replicate_task`) satisfy this.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = [
    "ProgressRollup",
    "Task",
    "TaskEvent",
    "TaskError",
    "effective_workers",
    "run_tasks",
]


@dataclass(frozen=True)
class Task:
    """One independent unit of work: ``fn(*args, **kwargs)`` under a label."""

    label: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TaskEvent:
    """Structured progress notification.

    ``status`` is one of ``"start"`` (task submitted / begun),
    ``"done"`` (result available), ``"retry"`` (worker crash or timeout,
    task will run again), ``"failed"`` (retries exhausted).  ``elapsed``
    is seconds since the task first started; ``error`` carries the
    failure description for ``retry``/``failed`` events.
    """

    label: str
    status: str
    elapsed: float = 0.0
    error: str | None = None


class TaskError(RuntimeError):
    """A task could not be completed after exhausting its retries."""

    def __init__(self, label: str, reason: str) -> None:
        super().__init__(f"task {label!r} failed: {reason}")
        self.label = label
        self.reason = reason


ProgressCallback = Callable[[TaskEvent], None]


class ProgressRollup:
    """Fold :class:`TaskEvent` streams into one fleet-level status line.

    The per-task rollup behind ``--monitor`` for ``sweep`` and
    ``replicate``: counts starts/dones/retries/failures over a known
    task total and estimates time remaining from the mean elapsed time
    of completed tasks — using only the ``elapsed`` values the events
    carry, never a clock of its own (the CLI owns wall-clock concerns).

    Use it as the ``progress`` callback directly, or wrap another
    callback via ``chain`` to keep existing rendering:

    >>> rollup = ProgressRollup(len(tasks))
    >>> run_tasks(tasks, progress=rollup.chain(render))
    """

    def __init__(self, total: int) -> None:
        if total < 0:
            raise ValueError("total must be >= 0")
        self.total = int(total)
        self.started = 0
        self.done = 0
        self.retries = 0
        self.failed = 0
        self.elapsed_done: list[float] = []
        self.last_label: str | None = None

    def __call__(self, event: TaskEvent) -> None:
        self.last_label = event.label
        if event.status == "start":
            self.started += 1
        elif event.status == "done":
            self.done += 1
            self.elapsed_done.append(float(event.elapsed))
        elif event.status == "retry":
            self.retries += 1
        elif event.status == "failed":
            self.failed += 1

    def chain(self, other: ProgressCallback | None) -> ProgressCallback:
        """A callback that updates this rollup, then forwards to ``other``."""

        def forward(event: TaskEvent) -> None:
            self(event)
            if other is not None:
                other(event)

        return forward

    def eta_seconds(self, workers: int = 1) -> float | None:
        """Remaining-time estimate from mean completed-task elapsed time.

        ``None`` until at least one task has completed.  Assumes the
        remaining tasks cost the mean observed elapsed time, spread over
        ``workers`` lanes — a coarse but monotone-improving estimate.
        """
        if not self.elapsed_done:
            return None
        mean = sum(self.elapsed_done) / len(self.elapsed_done)
        remaining = max(0, self.total - self.done)
        return mean * remaining / max(1, int(workers))

    def render(self, *, workers: int = 1) -> str:
        """One status line, e.g. ``[3/8] running seed=5  eta ~42s``."""
        parts = [f"[{self.done}/{self.total}]"]
        if self.done < self.total and self.last_label is not None:
            parts.append(f"running {self.last_label}")
        if self.retries:
            parts.append(f"retries {self.retries}")
        if self.failed:
            parts.append(f"failed {self.failed}")
        eta = self.eta_seconds(workers)
        if eta is not None and self.done < self.total:
            parts.append(f"eta ~{eta:.0f}s")
        return "  ".join(parts)


def effective_workers(workers: int | None, n_tasks: int) -> int:
    """Clamp a worker request to something sensible for ``n_tasks``.

    ``None`` or ``0`` means "one per core, capped by the task count".
    """
    if workers is None or workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, min(int(workers), n_tasks)) if n_tasks else 1


def _emit(progress: ProgressCallback | None, event: TaskEvent) -> None:
    if progress is not None:
        progress(event)


def _run_serial(
    tasks: Sequence[Task], progress: ProgressCallback | None
) -> dict[str, Any]:
    results: dict[str, Any] = {}
    for task in tasks:
        started = time.monotonic()  # reprolint: disable=D1
        _emit(progress, TaskEvent(task.label, "start"))
        results[task.label] = task.fn(*task.args, **task.kwargs)
        # wall-clock subprocess timing  # reprolint: disable=D1
        elapsed = time.monotonic() - started
        _emit(progress, TaskEvent(task.label, "done", elapsed))
    return results


def _terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down even if a worker is wedged mid-task."""
    # Snapshot first: shutdown() clears the process table, and it never
    # kills a busy worker — a hung task would leak its process (and on
    # some platforms block interpreter exit) without the terminate pass.
    procs = list((getattr(executor, "_processes", None) or {}).values())
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass


def run_tasks(
    tasks: Sequence[Task],
    *,
    workers: int = 1,
    progress: ProgressCallback | None = None,
    task_timeout: float | None = None,
    max_retries: int = 1,
    mp_context: Any | None = None,
) -> dict[str, Any]:
    """Execute independent tasks, optionally across worker processes.

    Parameters
    ----------
    tasks:
        Labelled units of work; labels must be distinct (they key the
        result dict).
    workers:
        Process count.  ``1`` (default) runs serially in-process;
        ``None``/``0`` means one per CPU core.  The pool path requires
        picklable ``task.fn``.
    progress:
        Optional callback receiving :class:`TaskEvent` notifications.
    task_timeout:
        Seconds to wait for each task's result once the runner starts
        waiting on it (earlier waits overlap later tasks' execution, so
        this is a hang detector, not a precise per-task budget).  A
        timeout tears the pool down and retries the unfinished tasks.
    max_retries:
        How many times a task lost to a worker crash or timeout is
        re-attempted before :class:`TaskError` is raised.  Exceptions
        raised *by* the task itself are never retried — they are
        deterministic and propagate immediately.
    mp_context:
        Optional ``multiprocessing`` context (e.g. for ``spawn`` starts).

    Returns
    -------
    dict
        ``label -> result`` in the order the tasks were given, identical
        for every worker count.
    """
    tasks = list(tasks)
    labels = [t.label for t in tasks]
    if len(set(labels)) != len(labels):
        raise ValueError("task labels must be distinct")
    if not tasks:
        return {}
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")

    # Serial iff the caller asked for one worker: a pool is requested
    # even for a single task (it buys crash isolation and timeouts),
    # but its size never exceeds the task count.
    requested = int(workers) if workers is not None and workers > 0 else (os.cpu_count() or 1)
    if requested <= 1:
        return _run_serial(tasks, progress)
    n_workers = effective_workers(requested, len(tasks))

    results: dict[str, Any] = {}
    attempts: dict[str, int] = {t.label: 0 for t in tasks}
    first_start: dict[str, float] = {}
    pending = tasks

    while pending:
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(n_workers, len(pending)), mp_context=mp_context
            )
        except Exception:
            # Platform cannot run worker processes at all: degrade to the
            # serial path for everything still outstanding.
            serial = _run_serial(pending, progress)
            results.update(serial)
            break

        submitted = []
        for task in pending:
            if task.label not in first_start:
                first_start[task.label] = time.monotonic()  # reprolint: disable=D1
                _emit(progress, TaskEvent(task.label, "start"))
            submitted.append((task, executor.submit(task.fn, *task.args, **task.kwargs)))

        survivors: list[Task] = []
        abandoned = False
        failure = ""
        for task, future in submitted:
            if abandoned:
                # Pool already condemned: salvage finished results, queue
                # the rest for the next round.
                if future.done() and not future.cancelled():
                    try:
                        results[task.label] = future.result(timeout=0)
                        # wall-clock subprocess timing  # reprolint: disable=D1
                        elapsed = time.monotonic() - first_start[task.label]
                        _emit(progress, TaskEvent(task.label, "done", elapsed))
                        continue
                    except Exception:
                        pass
                survivors.append(task)
                continue
            try:
                results[task.label] = future.result(timeout=task_timeout)
                # wall-clock subprocess timing  # reprolint: disable=D1
                elapsed = time.monotonic() - first_start[task.label]
                _emit(progress, TaskEvent(task.label, "done", elapsed))
            except FutureTimeoutError:
                failure = f"no result within {task_timeout:.0f}s"
                abandoned = True
                survivors.append(task)
            except BrokenProcessPool:
                failure = "worker process died"
                abandoned = True
                survivors.append(task)
            except Exception:
                # The task itself raised: deterministic, do not retry.
                _terminate_pool(executor)
                raise
        if abandoned:
            _terminate_pool(executor)
        else:
            executor.shutdown(wait=True)

        pending = []
        for task in survivors:
            attempts[task.label] += 1
            elapsed = time.monotonic() - first_start[task.label]  # reprolint: disable=D1
            if attempts[task.label] > max_retries:
                _emit(progress, TaskEvent(task.label, "failed", elapsed, failure))
                raise TaskError(task.label, failure)
            _emit(progress, TaskEvent(task.label, "retry", elapsed, failure))
            pending.append(task)

    return {label: results[label] for label in labels}
