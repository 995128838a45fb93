"""Simulation clock.

A tiny mutable wrapper around "current simulation time" shared between the
engine and any component that wants to timestamp observations (metrics
probes, protocol state machines).  Keeping it separate from the engine
makes protocol components testable without an event loop.
"""

from __future__ import annotations

from math import inf


class Clock:
    """Monotonic simulation clock measured in seconds.

    The clock only moves forward; attempting to rewind raises
    :class:`ValueError` so that scheduling bugs surface immediately
    instead of corrupting event ordering.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if not 0.0 <= start < inf:
            raise ValueError(f"clock must start at a finite time >= 0, got {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t``.

        ``t`` may equal the current time (simultaneous events) but may
        never be earlier, nor NaN (which compares false both ways).
        """
        if not t >= self._now:
            raise ValueError(f"cannot move clock from {self._now} to {t}")
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self._now:.6f})"
