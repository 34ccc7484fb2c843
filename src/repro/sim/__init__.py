"""Discrete-event simulation engine.

The paper's protocols are evaluated in a custom event-based simulator
whose time unit is the shuffling period.  This package provides that
engine: :class:`~repro.sim.simulator.Simulator` (clock + event queue)
and :class:`~repro.sim.process.PeriodicProcess` (repeating timers with
phase/jitter).
"""

from .clock import Clock
from .events import EventHandle
from .process import PeriodicProcess
from .simulator import Simulator

__all__ = [
    "Clock",
    "EventHandle",
    "PeriodicProcess",
    "Simulator",
]
