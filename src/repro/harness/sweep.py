"""Parameter sweeps over experiment configs: the harness's one executor.

A sweep is an ordered mapping ``label -> config``; :func:`run_sweep`
runs each and returns ``label -> result`` in the same order.  Replication,
the paper figures, the CLI's ``--workers`` and the benches all run
through it.  Entries are independent worlds, each deterministic in its
config alone, so ``workers=N`` fans them out over a
``ProcessPoolExecutor`` with results identical to the serial run.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.harness.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.obs.prof import wall_monotonic

__all__ = ["ProgressRollup", "TaskEvent", "run_sweep"]


@dataclass(frozen=True)
class TaskEvent:
    """``status`` is ``"start"`` (run begun or submitted) or ``"done"``
    (result in); ``elapsed`` is the wall-clock seconds from start to done."""

    label: str
    status: str
    elapsed: float = 0.0


ProgressCallback = Callable[[TaskEvent], None]


class ProgressRollup:
    """Fold :class:`TaskEvent` streams into one status line (``--monitor``).

    Counts starts and completions over a known total and estimates the
    time remaining from the mean ``elapsed`` of completed runs — the
    events' values, never a clock of its own.  Use it as the ``progress``
    callback, or ``rollup.chain(render)`` to keep another callback.
    """

    def __init__(self, total: int) -> None:
        if total < 0:
            raise ValueError("total must be >= 0")
        self.total = int(total)
        self.started = 0
        self.done = 0
        self.elapsed_done: list[float] = []
        self.last_label: str | None = None

    def __call__(self, event: TaskEvent) -> None:
        self.last_label = event.label
        if event.status == "start":
            self.started += 1
        elif event.status == "done":
            self.done += 1
            self.elapsed_done.append(float(event.elapsed))

    def chain(self, other: ProgressCallback | None) -> ProgressCallback:
        """A callback that updates this rollup, then forwards to ``other``."""

        def forward(event: TaskEvent) -> None:
            self(event)
            if other is not None:
                other(event)

        return forward

    def eta_seconds(self, workers: int = 1) -> float | None:
        """Mean completed-run time x runs left / ``workers``; ``None``
        until a run has completed."""
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
        eta = self.eta_seconds(workers)
        if eta is not None and self.done < self.total:
            parts.append(f"eta ~{eta:.0f}s")
        return "  ".join(parts)


def run_sweep(
    configs: dict[str, ExperimentConfig],
    *,
    measure_lookups: bool = True,
    workers: int = 1,
    progress: ProgressCallback | None = None,
) -> dict[str, ExperimentResult]:
    """Run every labelled config; returns results in the same order.

    ``workers=1`` runs in-process, ``0`` means one per core, and the pool
    never outgrows the config count; a platform that cannot build a pool
    runs serially.  A config that raises in a worker re-raises here with
    its own type and message, and the configs not yet started are
    cancelled.  ``progress`` gets a ``start`` and a ``done``
    :class:`TaskEvent` per config.

    A ``trace_streaming`` config's convergence monitor is rebuilt from
    the config inside the worker and comes back finished on
    ``result.consumers``; a ``kernel_profile`` result carries its
    worker's profile — both identical to a serial run.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = one per core), got {workers}")
    emit = progress or (lambda event: None)
    requested = workers or os.cpu_count() or 1
    pool = None
    if requested > 1 and configs:
        try:
            pool = ProcessPoolExecutor(max_workers=min(requested, len(configs)))
        except (OSError, NotImplementedError):
            pass  # no usable multiprocessing here: run serially
    results: dict[str, ExperimentResult] = {}
    if pool is None:
        for label, config in configs.items():
            start = wall_monotonic()
            emit(TaskEvent(label, "start"))
            results[label] = run_experiment(config, measure_lookups=measure_lookups)
            emit(TaskEvent(label, "done", wall_monotonic() - start))
        return results
    started: dict[str, float] = {}
    with pool:
        futures = {}
        for label, config in configs.items():
            started[label] = wall_monotonic()
            emit(TaskEvent(label, "start"))
            futures[label] = pool.submit(run_experiment, config, measure_lookups=measure_lookups)
        try:
            for label, future in futures.items():
                results[label] = future.result()
                emit(TaskEvent(label, "done", wall_monotonic() - started[label]))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return results
