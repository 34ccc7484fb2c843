"""Clock contract: Simulator and WallClock behind one Scheduler facade.

This file is also the parity pin for the ``net-clock`` registry entry:
WallClock must keep the exact scheduling surface of Simulator (schedule,
schedule_after, post, post_after), or the same protocol object behaves
differently under simulation and live networking.
"""

import asyncio

import pytest

from repro.errors import SchedulerError
from repro.net.clock import Scheduler, WallClock
from repro.sim import Clock, Simulator


class TestSimClock:
    """The simulation clock is the Simulator itself; no wrapper sits between."""

    def test_simulator_is_a_clock(self):
        assert isinstance(Simulator(), Clock)


class TestWallClock:
    def test_now_advances_in_periods(self):
        async def run():
            clock = WallClock(seconds_per_period=0.01)
            first = clock.now
            await asyncio.sleep(0.05)
            return first, clock.now

        first, later = asyncio.run(run())
        assert first >= 0.0
        # 0.05 wall seconds = 5 periods at 0.01 s/period.
        assert later - first > 2.0

    def test_schedule_after_fires_with_args(self):
        async def run():
            clock = WallClock(seconds_per_period=0.005)
            fired = []
            clock.schedule_after(1.0, fired.append, "x")
            clock.post_after(1.0, fired.append, "y")
            await asyncio.sleep(0.05)
            return fired

        assert sorted(asyncio.run(run())) == ["x", "y"]

    def test_cancel_prevents_firing(self):
        async def run():
            clock = WallClock(seconds_per_period=0.005)
            fired = []
            handle = clock.schedule_after(1.0, fired.append, "x")
            handle.cancel()
            assert handle.cancelled
            await asyncio.sleep(0.03)
            return fired

        assert asyncio.run(run()) == []

    def test_past_times_clamp_to_immediate(self):
        # A wall clock cannot refuse the past: scheduling behind now
        # fires as soon as possible instead of raising.
        async def run():
            clock = WallClock(seconds_per_period=0.005)
            await asyncio.sleep(0.02)
            fired = []
            clock.schedule(0.0, fired.append, "late")
            await asyncio.sleep(0.02)
            return fired

        assert asyncio.run(run()) == ["late"]

    def test_negative_delay_rejected(self):
        async def run():
            clock = WallClock(seconds_per_period=0.005)
            with pytest.raises(SchedulerError):
                clock.schedule_after(-0.5, lambda: None)

        asyncio.run(run())

    def test_bad_seconds_per_period(self):
        with pytest.raises(SchedulerError):
            WallClock(seconds_per_period=0.0)


class TestScheduler:
    def test_wraps_simulator(self):
        sim = Simulator()
        scheduler = Scheduler(sim)
        assert not scheduler.wall
        fired = []
        scheduler.schedule_after(1.0, fired.append, 1)
        scheduler.run_until(2.0)
        assert fired == [1]
        assert scheduler.now == 2.0

    def test_wraps_simclock(self):
        # Scheduler over the simulation clock: run_until past the last
        # event still advances now to the horizon.
        scheduler = Scheduler(Simulator())
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until(1.5)
        assert scheduler.now == 1.5

    def test_run_until_refused_on_wall(self):
        async def run():
            scheduler = Scheduler(WallClock(seconds_per_period=0.01))
            assert scheduler.wall
            with pytest.raises(SchedulerError):
                scheduler.run_until(10.0)

        asyncio.run(run())

    def test_run_for_on_wall_sleeps(self):
        async def run():
            scheduler = Scheduler(WallClock(seconds_per_period=0.005))
            fired = []
            scheduler.schedule_after(2.0, fired.append, "tick")
            await scheduler.run_for(5.0)
            return fired

        assert asyncio.run(run()) == ["tick"]

    def test_run_for_on_sim_advances(self):
        async def run():
            scheduler = Scheduler(Simulator())
            fired = []
            scheduler.schedule_after(2.0, fired.append, "tick")
            await scheduler.run_for(5.0)
            return fired, scheduler.now

        fired, now = asyncio.run(run())
        assert fired == ["tick"]
        assert now == 5.0

    def test_shared_surface_matches(self):
        # The parity contract, asserted structurally: every scheduling
        # method exists on both concrete clocks with matching names.
        for name in ("schedule", "schedule_after", "post", "post_after"):
            assert callable(getattr(Simulator, name))
            assert callable(getattr(WallClock, name))
