"""LoopLagSampler: one-sided scheduling lag over pure asyncio (no sockets)."""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.live.lag import LoopLagSampler


def run(coro_fn, *args):
    return asyncio.run(coro_fn(*args))


class TestLoopLagSampler:
    def test_interval_must_be_positive(self):
        async def body():
            loop = asyncio.get_running_loop()
            with pytest.raises(ValueError, match="interval"):
                LoopLagSampler(loop, interval=0.0)

        run(body)

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_interval_must_be_finite(self, interval):
        async def body():
            with pytest.raises(ValueError, match="interval"):
                LoopLagSampler(asyncio.get_running_loop(), interval=interval)

        run(body)

    def test_idle_loop_reports_small_lag(self):
        async def body():
            sampler = LoopLagSampler(asyncio.get_running_loop(), interval=0.01)
            sampler.start()
            await asyncio.sleep(0.08)
            sampler.stop()
            return sampler.stats()

        stats = run(body)
        assert stats["samples"] >= 3
        assert stats["mean_ms"] >= 0.0  # lag is clamped one-sided
        assert stats["max_ms"] >= stats["mean_ms"]

    def test_blocked_loop_shows_up_as_lag(self):
        async def body():
            loop = asyncio.get_running_loop()
            sampler = LoopLagSampler(loop, interval=0.01)
            sampler.start()
            await asyncio.sleep(0.02)
            # monopolize the loop: callbacks scheduled during this spin
            # cannot fire until it yields
            deadline = loop.time() + 0.1
            while loop.time() < deadline:
                pass
            await asyncio.sleep(0.02)
            sampler.stop()
            return sampler.stats()

        stats = run(body)
        assert stats["samples"] >= 1
        assert stats["max_ms"] > 50.0  # the 100 ms spin dwarfs the interval

    def test_start_and_stop_are_idempotent(self):
        async def body():
            sampler = LoopLagSampler(asyncio.get_running_loop(), interval=0.01)
            sampler.start()
            sampler.start()
            await asyncio.sleep(0.03)
            sampler.stop()
            sampler.stop()
            frozen = sampler.stats()["samples"]
            await asyncio.sleep(0.03)
            return frozen, sampler.stats()["samples"]

        frozen, later = run(body)
        assert later == frozen  # stop cancels the pending tick

    def test_empty_stats_are_zeroed(self):
        async def body():
            return LoopLagSampler(asyncio.get_running_loop()).stats()

        assert run(body) == {"mean_ms": 0.0, "max_ms": 0.0, "samples": 0}
