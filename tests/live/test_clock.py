"""LiveScheduler semantics: protocol-seconds arithmetic over the asyncio
clock, the Simulator scheduling vocabulary (schedule / schedule_at /
cancel), periodic processes, and the epoch-reset rule.

These tests run pure asyncio — no sockets — so they are never skipped.
The speedups are large so every wall wait stays in the tens of
milliseconds.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.live.clock import LiveScheduler


def run(coro_fn, *args):
    return asyncio.run(coro_fn(*args))


class TestClockArithmetic:
    def test_now_advances_at_speedup_rate(self):
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop(), speedup=1000.0)
            await asyncio.sleep(0.05)
            return sched.now

        now = run(body)
        # 0.05 wall s at 1000x is 50 protocol s; generous CI tolerance.
        assert 40.0 < now < 500.0

    def test_wall_deadline_inverts_now(self):
        async def body():
            loop = asyncio.get_running_loop()
            sched = LiveScheduler(loop, speedup=60.0)
            # protocol t=120 must map 2 wall seconds past the epoch
            assert sched.wall_deadline(120.0) == pytest.approx(
                sched.wall_deadline(0.0) + 2.0
            )

        run(body)

    def test_rejects_nonpositive_speedup(self):
        async def body():
            loop = asyncio.get_running_loop()
            with pytest.raises(ValueError, match="speedup"):
                LiveScheduler(loop, speedup=0.0)

        run(body)

    @pytest.mark.parametrize("speedup", [math.nan, math.inf])
    def test_rejects_non_finite_speedup(self, speedup):
        async def body():
            with pytest.raises(ValueError, match="speedup"):
                LiveScheduler(asyncio.get_running_loop(), speedup=speedup)

        run(body)


class TestScheduling:
    def test_schedule_fires_after_protocol_delay(self):
        async def body():
            loop = asyncio.get_running_loop()
            sched = LiveScheduler(loop, speedup=1000.0)
            fired = asyncio.Event()
            seen = []
            sched.schedule(10.0, lambda tag: (seen.append(tag), fired.set()), "x")
            await asyncio.wait_for(fired.wait(), timeout=2.0)
            return seen, sched.now

        seen, now = run(body)
        assert seen == ["x"]
        assert now >= 10.0  # 10 protocol s = 10 ms wall at 1000x

    def test_schedule_rejects_negative_delay(self):
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop())
            with pytest.raises(ValueError, match="delay"):
                sched.schedule(-1.0, lambda: None)

        run(body)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_delay_and_time_rejected(self, bad):
        """A NaN or infinite deadline never reaches the loop's timer heap."""
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop())
            with pytest.raises(ValueError, match="delay"):
                sched.schedule(bad, lambda: None)
            with pytest.raises(ValueError, match="time"):
                sched.schedule_at(bad, lambda: None)
            return sched.events_scheduled

        assert run(body) == 0

    def test_cancel_prevents_firing(self):
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop(), speedup=1000.0)
            seen = []
            handle = sched.schedule(5.0, seen.append, "nope")
            handle.cancel()
            await asyncio.sleep(0.05)
            return seen

        assert run(body) == []

    def test_schedule_at_clamps_past_deadlines(self):
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop(), speedup=1000.0)
            fired = asyncio.Event()
            await asyncio.sleep(0.02)  # now ≈ 20 protocol s
            sched.schedule_at(1.0, lambda: fired.set())  # already past
            await asyncio.wait_for(fired.wait(), timeout=1.0)

        run(body)

    def test_every_fires_repeatedly_until_stopped(self):
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop(), speedup=1000.0)
            ticks = []
            periodic = sched.every(10.0, lambda: ticks.append(sched.now))
            await asyncio.sleep(0.08)  # ~80 protocol s -> ~8 periods
            periodic.stop()
            count = len(ticks)
            await asyncio.sleep(0.03)
            return count, len(ticks)

        count, after = run(body)
        assert count >= 3
        assert after == count  # nothing fires past stop()

    def test_every_rejects_nonpositive_period(self):
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop())
            with pytest.raises(ValueError, match="period"):
                sched.every(0.0, lambda: None)

        run(body)

    @pytest.mark.parametrize("period", [math.nan, math.inf])
    def test_every_rejects_non_finite_period(self, period):
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop())
            with pytest.raises(ValueError, match="period"):
                sched.every(period, lambda: None)

        run(body)


class TestEpoch:
    def test_reset_epoch_rezeroes_protocol_time(self):
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop(), speedup=1000.0)
            await asyncio.sleep(0.03)
            before = sched.now
            sched.reset_epoch()
            return before, sched.now

        before, after = run(body)
        assert before > after
        assert after < 5.0  # freshly re-zeroed

    def test_reset_epoch_refused_once_timers_are_armed(self):
        async def body():
            sched = LiveScheduler(asyncio.get_running_loop())
            sched.schedule(60.0, lambda: None)
            with pytest.raises(RuntimeError, match="epoch"):
                sched.reset_epoch()

        run(body)
