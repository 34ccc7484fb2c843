"""Discrete-event simulation engine.

The paper's protocols are evaluated in a custom event-based simulator
whose time unit is the shuffling period.  This package provides that
engine: :class:`~repro.sim.simulator.Simulator` (clock + event queue),
:class:`~repro.sim.process.PeriodicProcess` (repeating timers with
phase/jitter), and :class:`~repro.sim.trace.Tracer` (structured
tracing).
"""

from .clock import Clock
from .events import Event, EventHandle
from .process import PeriodicProcess
from .simulator import Simulator
from .trace import NullTracer, Tracer, TraceRecord

__all__ = [
    "Clock",
    "Event",
    "EventHandle",
    "PeriodicProcess",
    "Simulator",
    "Tracer",
    "NullTracer",
    "TraceRecord",
]
