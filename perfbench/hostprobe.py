"""A fixed kernel that reads how fast the host is right now.

The machines this benchmark runs on change speed under it: the same
code takes 15 % more or less from one ten-second window to the next and
half as long again in a bad minute, in CPU time as in wall time, for
Python and numpy alike (a neighbour on the same memory system; there
are no hardware counters in the guest to say more).  No statistic of a
ten-second run removes a slowdown that lasts the whole run.  What does
is reading the host's speed where the ops are measured: the runner times
this kernel before the first op, between ops and after the last one, and
states every time it reports at the speed at which the kernel takes
``NOMINAL_S``.

The kernel does what the workloads do, half and half: interpreter
arithmetic and small-object allocation with dict traffic, then numpy
sorts, gathers and scatters over arrays that do not fit the cache.  It
is seeded with a constant, never with the workload's seed, and touches
nothing of ``repro``.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional

import numpy as np

__all__ = ["HostProbe", "NOMINAL_S"]

#: What one reading takes on the machine the benchmark was written on,
#: in its usual state.  Only a unit: every timing is scaled by
#: ``NOMINAL_S / (this run's median reading)``.
NOMINAL_S = 0.04

_clock = time.perf_counter


class _Record:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: tuple, c: bytes) -> None:
        self.a = a
        self.b = b
        self.c = c


class HostProbe:
    """Times one fixed kernel, a few readings at a time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20120618)
        self._values = rng.integers(0, 1 << 40, size=2_000_000)
        self._index = rng.integers(0, self._values.size, size=300_000)
        self._tables: List[dict] = [{} for _ in range(64)]
        self.readings: List[float] = []
        self._kernel()  # the first pass allocates; do not time it

    def _kernel(self) -> None:
        total = 0
        for i in range(150_000):
            total += i * i
        tables = self._tables
        for i in range(24_000):
            tables[i & 63][(i * 2654435761) & 0xFFFFF] = _Record(i, (i, total), b"x" * 16)
        for table in tables:
            if len(table) > 20_000:
                table.clear()
        values = self._values
        np.unique(values[:60_000])
        picked = values[self._index]
        values[self._index[::2]] = picked[::2] + 1
        np.bincount(self._index & 0xFFFF, minlength=1 << 16)

    def read(self, repeats: int) -> None:
        """Time the kernel ``repeats`` times."""
        for _ in range(repeats):
            started = _clock()
            self._kernel()
            self.readings.append(_clock() - started)

    def factor(self, first: int = 0, last: Optional[int] = None) -> float:
        """How much slower than nominal the host was over some readings."""
        readings = self.readings[first:last]
        return statistics.median(readings) / NOMINAL_S if readings else 1.0
