"""Wall time behind the :class:`~repro.sim.clock.Clock` contract.

This module is the only place protocol code may get wall time from
(``repro/net/`` is on the determinism linter's DET003 exempt-path list
for exactly this reason): :class:`WallClock` maps ``time.monotonic()``
onto the protocol's time axis, and everything above it keeps speaking
simulated "shuffling periods".

Time scaling
------------
The protocol's unit of time is the shuffling period.  A
:class:`WallClock` is constructed with ``seconds_per_period``: ``now``
returns ``(monotonic - epoch) / seconds_per_period`` and scheduled
delays are multiplied back out, so an :class:`~repro.core.node
.OverlayNode` that shuffles every ``1.0`` time units shuffles once per
``seconds_per_period`` wall seconds.  Every protocol parameter
(pseudonym lifetime, heartbeat interval, suspect timeouts) keeps its
simulator meaning under deployment — only the scale knob changes.

Unlike the simulator, a wall clock cannot refuse to schedule in the
past — real time has already moved on — so past times clamp to "run as
soon as possible" instead of raising.  Negative *delays* are still
programming errors and raise, matching :class:`Simulator`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from ..errors import SchedulerError
from ..sim.clock import Clock

__all__ = ["WallClock", "WallHandle", "Scheduler"]


class WallHandle:
    """Cancellable reference to a wall-clock callback.

    Mirrors the :class:`~repro.sim.events.EventHandle` surface
    (``cancel()``, ``cancelled``, ``time``, ``label``) so protocol code
    holding a handle never knows which clock issued it.
    """

    __slots__ = ("_timer", "_cancelled", "time", "label")

    def __init__(
        self,
        timer: asyncio.TimerHandle,
        time: float,
        label: Optional[str] = None,
    ) -> None:
        self._timer = timer
        self._cancelled = False
        self.time = time
        self.label = label

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self._timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self._cancelled else ""
        return f"WallHandle(t={self.time:.4f}{state})"


class WallClock(Clock):
    """Real time, measured in shuffling periods, over an asyncio loop.

    Parameters
    ----------
    seconds_per_period:
        Wall seconds per protocol time unit.  ``0.05`` runs a mesh at
        20 shuffling periods per second — brisk enough for CI, slow
        enough for real sockets.
    loop:
        Event loop used for ``call_later``.  When ``None`` the running
        loop is looked up at each scheduling call, so a ``WallClock``
        may be constructed before the loop starts.
    """

    __slots__ = ("_loop", "_seconds_per_period", "_epoch")

    def __init__(
        self,
        seconds_per_period: float = 1.0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        if seconds_per_period <= 0:
            raise SchedulerError(
                f"seconds_per_period must be positive, got {seconds_per_period}"
            )
        self._loop = loop
        self._seconds_per_period = seconds_per_period
        self._epoch = time.monotonic()

    @property
    def seconds_per_period(self) -> float:
        """Wall seconds per protocol time unit."""
        return self._seconds_per_period

    def _event_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is not None:
            return self._loop
        return asyncio.get_running_loop()

    @property
    def now(self) -> float:
        return (time.monotonic() - self._epoch) / self._seconds_per_period

    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: Optional[str] = None,
    ) -> WallHandle:
        delay = max(0.0, time - self.now) * self._seconds_per_period
        timer = self._event_loop().call_later(delay, callback, *args)
        return WallHandle(timer, time, label)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: Optional[str] = None,
    ) -> WallHandle:
        if delay < 0:
            raise SchedulerError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback, *args, label=label)

    def post(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        delay = max(0.0, time - self.now) * self._seconds_per_period
        self._event_loop().call_later(delay, callback, *args)

    def post_after(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        if delay < 0:
            raise SchedulerError(f"delay must be non-negative, got {delay}")
        self.post(self.now + delay, callback, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WallClock(now={self.now:.4f}, "
            f"seconds_per_period={self._seconds_per_period})"
        )


class Scheduler(Clock):
    """One façade over either clock, presenting the Simulator surface.

    :class:`~repro.core.protocol.Overlay` and friends take a ``sim``
    argument and occasionally call ``sim.run_until``.  A ``Scheduler``
    wraps any :class:`Clock` and:

    * delegates the whole :class:`Clock` surface;
    * forwards ``run_until`` when the backing clock supports it (a
      :class:`~repro.sim.simulator.Simulator`), and raises a clear
      :class:`~repro.errors.SchedulerError` on a wall clock — real time
      cannot be fast-forwarded;
    * adds :meth:`run_for`, the portable way to let time pass: a
      synchronous drain under simulation, an ``asyncio.sleep`` under
      wall time.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock: Clock) -> None:
        self._clock = clock

    @property
    def clock(self) -> Clock:
        """The backing clock."""
        return self._clock

    @property
    def wall(self) -> bool:
        """Whether the backing clock runs on real time."""
        return isinstance(self._clock, WallClock)

    @property
    def now(self) -> float:
        return self._clock.now

    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: Optional[str] = None,
    ) -> Any:
        return self._clock.schedule(time, callback, *args, label=label)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: Optional[str] = None,
    ) -> Any:
        return self._clock.schedule_after(delay, callback, *args, label=label)

    def post(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        self._clock.post(time, callback, *args)

    def post_after(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        self._clock.post_after(delay, callback, *args)

    def run_until(self, horizon: float) -> None:
        """Advance a simulation-backed clock to ``horizon``."""
        runner = getattr(self._clock, "run_until", None)
        if runner is None:
            raise SchedulerError(
                "run_until() needs a simulation-backed clock; a WallClock "
                "cannot be fast-forwarded — use 'await scheduler.run_for(...)'"
            )
        runner(horizon)

    async def run_for(self, duration: float) -> None:
        """Let ``duration`` time units pass on whichever clock backs us."""
        if duration < 0:
            raise SchedulerError(f"duration must be non-negative, got {duration}")
        if self.wall:
            seconds = duration * self._clock.seconds_per_period
            await asyncio.sleep(seconds)
        else:
            self.run_until(self.now + duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scheduler({self._clock!r})"
