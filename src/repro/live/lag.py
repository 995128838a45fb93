"""Event-loop scheduling-lag sampler for the live plane.

A live swarm's protocol timers are only as punctual as the asyncio loop
that fires them: when handlers or codec work monopolize the loop, every
``call_later`` fires late and the deployment silently drifts from the
protocol schedule it claims to follow.  :class:`LoopLagSampler` measures
that drift directly — it asks the loop to call back after a fixed
interval and records how late the callback actually runs — and feeds the
summary into the telemetry snapshots, so an operator watching the JSONL
stream sees loop saturation as a number, not as mysteriously slow
convergence.

Wall-clock reads here are by design: the whole module measures real
scheduling behavior (``repro.live`` is on the reprolint D1 allowlist).
"""

from __future__ import annotations

import asyncio
import math
from typing import Any

__all__ = ["LoopLagSampler"]


class LoopLagSampler:
    """Periodically measures how late ``call_later`` callbacks fire.

    The sampler never raises from its timer callback (the event-loop
    discipline of this package) and is cheap: one ``loop.time()`` read
    and three float updates per interval.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, interval: float = 0.05) -> None:
        if not 0.0 < interval < math.inf:
            raise ValueError(f"interval must be positive and finite, got {interval}")
        self._loop = loop
        self.interval = float(interval)
        self.samples = 0
        self.total_lag = 0.0
        self.max_lag = 0.0
        self._expected = 0.0
        self._handle: asyncio.TimerHandle | None = None
        self._running = False

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self._expected = self._loop.time() + self.interval
        self._handle = self._loop.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        now = self._loop.time()
        lag = now - self._expected
        if lag < 0.0:  # clocks can fire marginally early; lag is one-sided
            lag = 0.0
        self.samples += 1
        self.total_lag += lag
        if lag > self.max_lag:
            self.max_lag = lag
        self._expected = now + self.interval
        self._handle = self._loop.call_later(self.interval, self._tick)

    def stop(self) -> None:
        """Stop sampling and cancel the pending timer (idempotent)."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def stats(self) -> dict[str, Any]:
        """Summary for a telemetry snapshot (empty-safe)."""
        mean_ms = (self.total_lag / self.samples) * 1e3 if self.samples else 0.0
        return {
            "mean_ms": round(mean_ms, 3),
            "max_ms": round(self.max_lag * 1e3, 3),
            "samples": self.samples,
        }
