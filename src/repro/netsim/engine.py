"""Discrete-event simulation engine.

:class:`Simulator` owns a :class:`~repro.netsim.clock.Clock` and an
:class:`~repro.netsim.events.EventQueue` and exposes the small scheduling
vocabulary the protocol layer needs: one-shot timers (relative or
absolute), periodic processes, and bounded runs (`run_until`).

The engine is deliberately single-threaded and synchronous: events are
Python callables executed inline.  Message latency is modelled by
scheduling the receive handler ``d(u, v)`` seconds in the future, not by
simulating packets — the same abstraction level the paper's own simulator
uses.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable

from repro.netsim.clock import Clock
from repro.netsim.events import Event, EventHandle, EventQueue

__all__ = ["Simulator", "PeriodicProcess"]


class PeriodicProcess:
    """A repeating callback with a mutable period.

    Created through :meth:`Simulator.every`.  The callback may change
    ``period`` from inside itself (the PROP Markov-chain timer does
    exactly that) and may call :meth:`stop` to end the process.
    """

    __slots__ = ("_sim", "_callback", "period", "_handle", "_stopped")

    def __init__(self, sim: "Simulator", period: float, callback: Callable[[], None]) -> None:
        if period <= 0.0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self._callback = callback
        self.period = float(period)
        self._stopped = False
        self._handle: EventHandle = sim.schedule(self.period, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._handle = self._sim.schedule(self.period, self._fire)

    def stop(self) -> None:
        self._stopped = True
        self._handle.cancel()


class Simulator:
    """Single-threaded discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(5.0, seen.append, "a")
    >>> _ = sim.schedule(1.0, seen.append, "b")
    >>> sim.run()
    >>> seen
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = Clock(start_time)
        self.queue = EventQueue()
        self.events_executed = 0
        #: Optional :class:`repro.obs.prof.KernelProfiler`.  ``None`` by
        #: default; ``run_until`` pays one attribute check when unset.
        self.profiler: Any = None

    @property
    def now(self) -> float:
        return self.clock.now

    # -- scheduling -----------------------------------------------------

    # The checks are written so that NaN, which compares false with
    # everything, fails them too.

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds, finite and ``>= 0``."""
        return EventHandle(self.post(delay, callback, *args), self.queue)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """:meth:`schedule` without the handle, for an event that is
        never cancelled (a message delivery)."""
        if not 0.0 <= delay < inf:
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        return self.queue.post(self.clock.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute time ``time``, finite and ``>= now``."""
        if not self.clock.now <= time < inf:
            raise ValueError(f"cannot schedule at {time}, now is {self.now}")
        return self.queue.push(time, callback, args)

    def every(self, period: float, callback: Callable[[], None]) -> PeriodicProcess:
        """Start a periodic process firing every ``period`` seconds."""
        return PeriodicProcess(self, period, callback)

    # -- execution ------------------------------------------------------

    def _run_due(self, t: float, limit: int | None) -> int:
        """Execute the events due at or before ``t``, at most ``limit``
        of them; the one unprofiled dispatch loop."""
        executed = 0
        pop_due = self.queue.pop_due
        advance_to = self.clock.advance_to
        while executed != limit and (ev := pop_due(t)) is not None:
            advance_to(ev.time)
            self.events_executed += 1
            executed += 1
            ev.callback(*ev.args)
        return executed

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when queue is empty."""
        return self._run_due(inf, 1) == 1

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        return self._run_due(inf, None if max_events is None else max(max_events, 0))

    def run_until(self, t: float) -> int:
        """Run every event with timestamp ``<= t`` then set the clock to ``t``.

        Returns the number of events executed by this call.
        """
        if not self.now <= t < inf:
            raise ValueError(f"cannot run_until({t}) when now is {self.now}")
        prof = self.profiler
        if prof is not None:
            return self._run_until_profiled(t, prof)
        executed = self._run_due(t, None)
        self.clock.advance_to(t)
        return executed

    def _run_until_profiled(self, t: float, prof: Any) -> int:
        """``run_until`` with the dispatch loop bracketed for attribution.

        Same loop, same :meth:`EventQueue.pop_due` primitive; the
        per-event bracket encloses the pop (corpse skipping included),
        the clock advance and the callback.  Everything else in the
        window (loop overhead, the final pop that finds nothing due)
        lands in the profiler's ``untracked`` residual.
        """
        prof.begin_window()
        executed = 0
        pop_due = self.queue.pop_due
        advance_to = self.clock.advance_to
        while True:
            prof.begin_event()
            ev = pop_due(t)
            if ev is None:
                break
            advance_to(ev.time)
            self.events_executed += 1
            ev.callback(*ev.args)
            prof.end_event(ev.callback, ev.args)
            executed += 1
        advance_to(t)
        prof.end_window(self)
        return executed
