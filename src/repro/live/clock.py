"""Wall-clock scheduling behind the simulator's vocabulary.

:class:`LiveScheduler` is the deployment plane's drop-in for the calls
the protocol layer makes on a :class:`~repro.netsim.engine.Simulator` —
``now``, ``schedule``, its handle-less form ``post``, and
``schedule_at`` — plus ``every`` for periodic processes.  The existing
timer-policy abstraction (:class:`~repro.core.timer_policy.MarkovTimer`
computing *delays*, the engine turning delays into scheduled callbacks)
is what makes the swap possible: the engine never asks "what time is
it" except through ``sim.now``, and never sleeps except through
``sim.schedule``, so replacing the event queue with
``loop.call_later`` converts the whole state machine to wall time
without touching a line of protocol code.

Time is reported in **protocol seconds**: ``now`` is the wall time since
construction multiplied by ``speedup``, and a ``schedule(delay)`` fires
after ``delay / speedup`` wall seconds.  ``speedup=60`` runs the paper's
60-second probe timer once per wall second, so an hour-long deployment
plays out in a minute while every protocol-visible number (timer values,
timeouts, trace timestamps, sample times) stays in the same unit as the
simulator — which is what lets the sim-vs-real parity harness compare
trajectories point for point.

Callbacks run on the owning asyncio event loop (single-threaded, like
the simulator's inline execution); handles expose ``cancel()`` exactly
as :class:`~repro.netsim.events.EventHandle` does.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable

__all__ = ["LivePeriodic", "LiveScheduler"]


class LiveScheduler:
    """Protocol-seconds scheduler over an asyncio event loop.

    Parameters
    ----------
    loop:
        The event loop whose clock and ``call_later`` drive everything.
    speedup:
        Protocol seconds per wall second (``> 0``).  ``1.0`` is real
        time; the default ``60.0`` compresses the paper's minute-scale
        probe timers into seconds.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, speedup: float = 60.0) -> None:
        if not 0.0 < speedup < math.inf:
            raise ValueError(f"speedup must be positive and finite, got {speedup}")
        self._loop = loop
        self.speedup = float(speedup)
        self._t0 = loop.time()
        self.events_scheduled = 0

    @property
    def now(self) -> float:
        """Protocol time elapsed since the scheduler was created."""
        return (self._loop.time() - self._t0) * self.speedup

    def wall_deadline(self, t: float) -> float:
        """The ``loop.time()`` reading at protocol time ``t``."""
        return self._t0 + t / self.speedup

    def reset_epoch(self) -> None:
        """Re-zero protocol time at the current instant.

        The swarm calls this at launch so protocol t=0 marks the moment
        the engines arm, not scheduler construction — setup work (socket
        binding, substrate building) must not consume protocol time.
        Only legal before anything is scheduled: moving the epoch under
        armed timers would skew every pending deadline.
        """
        if self.events_scheduled:
            raise RuntimeError("cannot reset the epoch with timers scheduled")
        self._t0 = self._loop.time()

    # -- the Simulator scheduling vocabulary ------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> asyncio.TimerHandle:
        """Run ``callback(*args)`` after ``delay`` protocol seconds."""
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        self.events_scheduled += 1
        return self._loop.call_later(delay / self.speedup, callback, *args)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` without the handle, for a timer that is never
        cancelled (a probe cycle's first arming)."""
        self.schedule(delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> asyncio.TimerHandle:
        """Run ``callback(*args)`` at absolute protocol time ``time``.

        Unlike the simulator (whose clock only advances between events),
        wall time moves while a callback runs, so a deadline computed
        from a slightly stale ``now`` may already have passed — it is
        clamped to "immediately" rather than rejected.  A NaN or infinite
        ``time`` is rejected, not clamped.
        """
        if not math.isfinite(time):
            raise ValueError(f"time must be finite, got {time}")
        return self.schedule(max(0.0, time - self.now), callback, *args)

    def every(self, period: float, callback: Callable[[], None]) -> "LivePeriodic":
        """Start a periodic process firing every ``period`` protocol seconds."""
        return LivePeriodic(self, period, callback)


class LivePeriodic:
    """Repeating callback on a :class:`LiveScheduler` (mutable period),
    mirroring :class:`~repro.netsim.engine.PeriodicProcess`.

    Ticks are due at ``start + k * period``: each one is scheduled from
    the previous tick's due time, not from when its callback finished,
    so a late or slow callback does not push every later tick back."""

    __slots__ = ("_scheduler", "_callback", "period", "_handle", "_stopped", "_due")

    def __init__(
        self, scheduler: LiveScheduler, period: float, callback: Callable[[], None]
    ) -> None:
        if not 0.0 < period < math.inf:
            raise ValueError(f"period must be positive and finite, got {period}")
        self._scheduler = scheduler
        self._callback = callback
        self.period = float(period)
        self._stopped = False
        self._due = scheduler.now + self.period
        self._handle = scheduler.schedule_at(self._due, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._due += self.period
            self._handle = self._scheduler.schedule_at(self._due, self._fire)

    def stop(self) -> None:
        self._stopped = True
        self._handle.cancel()
