"""The shared clock contract behind simulated and wall time.

The overlay protocol is written against a *clock*, not against the
simulator: every protocol object (:class:`~repro.core.node.OverlayNode`,
:class:`~repro.sim.process.PeriodicProcess`, the metrics collector)
only ever reads ``clock.now`` and schedules callbacks at absolute times
or after delays.  :class:`Clock` names that contract so the same
protocol code runs unmodified on

* :class:`~repro.sim.simulator.Simulator` — discrete-event simulated
  time (the evaluation path; ``Simulator`` subclasses :class:`Clock`,
  the deterministic half of the ``Simulator``/``WallClock`` parity
  pair);
* :class:`repro.net.clock.WallClock` — real wall time over an asyncio
  event loop (the deployable path; see ``docs/networking.md``).

Time is always measured in **shuffling periods** (the paper's unit),
whatever the backing clock: a wall clock maps periods to seconds with a
configurable scale, so protocol parameters (pseudonym lifetimes,
heartbeat intervals) keep their meaning in live deployments.

Contract notes
--------------
* ``schedule``/``post`` take *absolute* times on the clock's own axis;
  ``schedule_after``/``post_after`` take non-negative delays.
* ``schedule``/``schedule_after`` return a cancellable handle exposing
  ``cancel()`` and ``cancelled`` (the :class:`~repro.sim.events
  .EventHandle` surface); ``post``/``post_after`` are the
  fire-and-forget fast path and return nothing.
* Simulated clocks *reject* scheduling in the past
  (:class:`~repro.errors.SchedulerError`); wall clocks cannot refuse
  the past and clamp it to "run as soon as possible".  Code portable
  across both must not rely on the rejection.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional

__all__ = ["Clock"]


class Clock(abc.ABC):
    """Scheduling surface shared by simulated and wall clocks."""

    __slots__ = ()

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in shuffling periods on this clock's axis."""

    @abc.abstractmethod
    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: Optional[str] = None,
    ) -> Any:
        """Run ``callback(*args)`` at absolute ``time``; cancellable."""

    @abc.abstractmethod
    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: Optional[str] = None,
    ) -> Any:
        """Run ``callback(*args)`` after ``delay``; cancellable."""

    @abc.abstractmethod
    def post(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule` (no handle allocated)."""

    @abc.abstractmethod
    def post_after(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule_after` (no handle allocated)."""
