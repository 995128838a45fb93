"""Sustained lookup load against the live overlay.

:class:`TrafficGenerator` issues lookups at a fixed rate (in protocol
time) while the swarm runs, recording each lookup's latency as a
``(protocol_time, latency_ms)`` sample.  This is the "measure under
load, not just at convergence" half of the live plane: a run record
carries the load as the ``live.lookups`` / ``live.mean_lookup_ms``
metrics (:meth:`TrafficGenerator.metrics`).  The harness's own
samples, not these, feed the run's
:class:`~repro.obs.monitor.ConvergenceMonitor`.

The generator draws sources and targets from its own named RNG stream
(``live:traffic`` by convention), so enabling load never perturbs the
protocol's or the measurement harness's draws — the parity gate depends
on that separation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.live.clock import LivePeriodic, LiveScheduler
from repro.overlay.base import Overlay
from repro.workloads.lookups import sample_lookups

__all__ = ["TrafficGenerator", "single_lookup"]


def single_lookup(
    overlay: Overlay,
    rng: np.random.Generator,
    *,
    node_delay: np.ndarray | None = None,
    ttl: int | None = None,
    retry_timeout: float | None = None,
) -> float:
    """One uniformly-drawn lookup's latency (ms) on the current overlay.

    The per-query form of the harness's
    :func:`~repro.harness.experiment.sample_lookup_latency` batch: the
    same :func:`~repro.workloads.lookups.sample_lookups` draw, one at a
    time, cheap enough to run on the event loop between protocol
    callbacks.
    """
    return sample_lookups(
        overlay, 1, rng, node_delay=node_delay, ttl=ttl, retry_timeout=retry_timeout
    )[0]


class TrafficGenerator:
    """Fixed-rate lookup driver on a :class:`LiveScheduler`.

    Parameters
    ----------
    scheduler:
        The swarm's clock; one lookup fires every ``1 / rate`` protocol
        seconds.
    lookup:
        Zero-argument callable returning one lookup's latency in ms
        (typically a closure over :func:`single_lookup`).
    rate:
        Lookups per protocol second (``> 0``).
    """

    def __init__(
        self,
        scheduler: LiveScheduler,
        lookup: Callable[[], float],
        rate: float,
    ) -> None:
        if not 0.0 < rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self._scheduler = scheduler
        self._lookup = lookup
        self.rate = float(rate)
        self.lookups = 0
        self.samples: list[tuple[float, float]] = []
        self._process: LivePeriodic | None = None

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("traffic generator already started")
        self._process = self._scheduler.every(1.0 / self.rate, self._tick)

    def _tick(self) -> None:
        t = self._scheduler.now
        ms = self._lookup()
        self.lookups += 1
        if math.isfinite(ms):
            self.samples.append((t, ms))

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()

    def metrics(self) -> dict[str, float]:
        """The run record's ``live.*`` metrics: lookups issued, and the
        mean over the in-scope ones when there are any — a lookup that
        stays out of scope (``inf``) leaves the mean, as in the
        harness's samples."""
        out: dict[str, float] = {"live.lookups": self.lookups}
        if self.samples:
            out["live.mean_lookup_ms"] = sum(ms for _, ms in self.samples) / len(self.samples)
        return out
