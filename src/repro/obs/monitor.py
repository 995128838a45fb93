"""Online convergence detectors fed by streaming trace consumers.

PROP's headline claim is a *trajectory* — the overlay converges toward
the underlay after a bounded warm-up — so monitoring has to watch the
run in flight, not sample it once.  This module holds the detectors:

* :class:`ExchangeEfficacy` — of the exchanges that committed, what
  fraction demonstrably reduced the pair's Var (the next ``VAR_COLLECT``
  observed for the same unordered pair came in below the committed
  value)?  A healthy run trends high; a run whose exchanges stop paying
  off has converged (or is thrashing).
* :class:`ThrashDetector` — the pathological counterpart: the same
  unordered pair committing again within ``k`` probe cycles, i.e.
  neighbors being swapped back and forth instead of settling.
* :class:`ConvergenceMonitor` — the composite consumer the harness
  installs: tallies exchange outcomes, delegates to the two detectors
  above, accepts latency samples via :meth:`ConvergenceMonitor.on_sample`
  and runs plateau detection on them through
  :func:`repro.metrics.convergence.convergence_epoch`.  Its
  :meth:`ConvergenceMonitor.status` snapshot backs the CLI's
  ``--monitor`` progress line.

Everything here runs on simulation time only.  Wall-clock concerns
(ETA, refresh cadence) live with the CLI renderer, which is the one
place allowed to look at a real clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.metrics.convergence import convergence_epoch
from repro.obs.events import Event

__all__ = [
    "ConvergenceMonitor",
    "ExchangeEfficacy",
    "MonitorStatus",
    "ThrashDetector",
    "find_monitor",
    "format_status",
]


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class ExchangeEfficacy:
    """Fraction of committed exchanges that reduced the pair's Var.

    Each ``EXCHANGE_COMMIT`` opens a pending entry keyed by the
    unordered ``(u, v)`` pair, holding the Var the exchange committed
    at.  The next ``VAR_COLLECT`` observed for that pair resolves it:
    *effective* when the newly evaluated Var is strictly below the
    committed one.  Commits whose pair is never probed again stay
    unresolved and do not count either way.
    """

    def __init__(self) -> None:
        self.commits = 0
        self.resolved = 0
        self.effective = 0
        self._pending: dict[tuple[int, int], float] = {}

    def on_event(self, event: Event) -> None:
        if event.etype == "EXCHANGE_COMMIT":
            self.commits += 1
            self._pending[_pair(event.u, event.v)] = event.var  # type: ignore[attr-defined]
        elif event.etype == "VAR_COLLECT":
            pair = _pair(event.u, event.v)  # type: ignore[attr-defined]
            committed = self._pending.pop(pair, None)
            if committed is not None:
                self.resolved += 1
                if event.var < committed:  # type: ignore[attr-defined]
                    self.effective += 1

    def finish(self, end_time: float) -> None:
        pass

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def efficacy(self) -> float | None:
        """Effective fraction of resolved commits (None before any resolve)."""
        return self.effective / self.resolved if self.resolved else None


class ThrashDetector:
    """Same unordered pair committing again within ``k`` probe cycles.

    Probe cycles are the protocol's own clock (``cycle`` on PROBE /
    VAR_COLLECT events is globally increasing); a pair that commits at
    cycle ``c`` and again by ``c + k`` is oscillating — exchanging
    neighbors back instead of converging.
    """

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise ValueError("thrash window k must be >= 1")
        self.k = int(k)
        self.commits = 0
        self.thrashes = 0
        self.thrash_pairs: list[tuple[int, int]] = []
        self._cycle = 0
        self._last_commit: dict[tuple[int, int], int] = {}

    def on_event(self, event: Event) -> None:
        etype = event.etype
        if etype in ("PROBE", "VAR_COLLECT"):
            cycle = event.cycle  # type: ignore[attr-defined]
            if cycle > self._cycle:
                self._cycle = cycle
        elif etype == "EXCHANGE_COMMIT":
            self.commits += 1
            pair = _pair(event.u, event.v)  # type: ignore[attr-defined]
            last = self._last_commit.get(pair)
            if last is not None and self._cycle - last <= self.k:
                self.thrashes += 1
                self.thrash_pairs.append(pair)
            self._last_commit[pair] = self._cycle

    def finish(self, end_time: float) -> None:
        pass


@dataclass(frozen=True)
class MonitorStatus:
    """One snapshot of a monitored run, ready for rendering."""

    phase: str
    sim_time: float
    duration: float
    latency_ms: float | None
    commits: int
    aborts: int
    timeouts: int
    efficacy: float | None
    thrashes: int
    plateau_time: float | None


class ConvergenceMonitor:
    """Composite streaming consumer behind the CLI's ``--monitor``.

    Parameters
    ----------
    duration:
        The run's configured duration (for the progress fraction).
    warmup_end:
        Sim time at which the warm-up phase nominally ends (from the
        experiment's phase breakdown); before it ``status().phase`` is
        ``"warmup"``, after it ``"maintenance"``.
    rel_tol, window:
        Plateau parameters forwarded to
        :func:`repro.metrics.convergence.convergence_epoch` over the
        latency samples fed via :meth:`on_sample`.
    thrash_cycles:
        ``k`` for the :class:`ThrashDetector`.
    """

    def __init__(
        self,
        duration: float,
        *,
        warmup_end: float = 0.0,
        rel_tol: float = 0.01,
        window: int = 3,
        thrash_cycles: int = 3,
    ) -> None:
        self.duration = float(duration)
        self.warmup_end = float(warmup_end)
        self.rel_tol = float(rel_tol)
        self.window = int(window)
        self.efficacy = ExchangeEfficacy()
        self.thrash = ThrashDetector(thrash_cycles)
        self.commits = 0
        self.aborts = 0
        self.timeouts = 0
        self.sample_times: list[float] = []
        self.samples: list[float] = []
        self.sim_time = 0.0
        self.finished = False

    # -- TraceConsumer interface -----------------------------------------

    def on_event(self, event: Event) -> None:
        if event.time > self.sim_time:
            self.sim_time = event.time
        etype = event.etype
        if etype == "EXCHANGE_COMMIT":
            self.commits += 1
        elif etype == "EXCHANGE_ABORT":
            self.aborts += 1
        elif etype == "EXCHANGE_TIMEOUT":
            self.timeouts += 1
        self.efficacy.on_event(event)
        self.thrash.on_event(event)

    def finish(self, end_time: float) -> None:
        if end_time > self.sim_time:
            self.sim_time = end_time
        self.efficacy.finish(end_time)
        self.thrash.finish(end_time)
        self.finished = True

    # -- sample feed (driven by the harness sampling loop) ----------------

    def on_sample(self, t: float, latency_ms: float) -> None:
        """Record one average-latency sample at sim time ``t``."""
        if t > self.sim_time:
            self.sim_time = t
        self.sample_times.append(float(t))
        self.samples.append(float(latency_ms))

    # -- snapshots ---------------------------------------------------------

    @property
    def plateau_time(self) -> float | None:
        """Sim time the latency series first plateaus (None until it does)."""
        if len(self.samples) < self.window + 2:
            return None
        return convergence_epoch(
            self.sample_times, self.samples, rel_tol=self.rel_tol, window=self.window
        )

    def status(self) -> MonitorStatus:
        if self.finished:
            phase = "done"
        elif self.sim_time < self.warmup_end:
            phase = "warmup"
        else:
            phase = "maintenance"
        return MonitorStatus(
            phase=phase,
            sim_time=self.sim_time,
            duration=self.duration,
            latency_ms=self.samples[-1] if self.samples else None,
            commits=self.commits,
            aborts=self.aborts,
            timeouts=self.timeouts,
            efficacy=self.efficacy.efficacy,
            thrashes=self.thrash.thrashes,
            plateau_time=self.plateau_time,
        )


def find_monitor(consumers: Iterable[object] | None) -> ConvergenceMonitor | None:
    """The :class:`ConvergenceMonitor` among a tracer's consumers, if any."""
    for consumer in consumers or ():
        if isinstance(consumer, ConvergenceMonitor):
            return consumer
    return None


def format_status(status: MonitorStatus, *, eta_seconds: float | None = None) -> str:
    """Render one ``--monitor`` progress line (no trailing newline).

    ``eta_seconds`` is the caller's wall-clock estimate; the monitor
    itself never reads a real clock.
    """
    parts = [
        f"[{status.phase}]",
        f"t={status.sim_time:.0f}/{status.duration:.0f}s",
    ]
    if status.latency_ms is not None:
        parts.append(f"lat {status.latency_ms:.1f}ms")
    parts.append(
        f"exch {status.commits}c/{status.aborts}a/{status.timeouts}t"
    )
    if status.efficacy is not None:
        parts.append(f"eff {status.efficacy:.2f}")
    if status.thrashes:
        parts.append(f"thrash {status.thrashes}")
    if status.plateau_time is not None:
        parts.append(f"plateau@{status.plateau_time:.0f}s")
    if eta_seconds is not None:
        parts.append(f"eta ~{max(0.0, eta_seconds):.0f}s")
    return "  ".join(parts)
