"""Event primitives for the discrete-event simulator.

The simulator's heap stores bare list entries ``[time, seq, callback,
args]``.  Plain lists compare element-wise in C — first by ``time``,
then by the unique ``seq`` — so heap sifts never call back into Python,
which is what makes the event loop fast.  Cancelling an event sets its
callback slot to ``None`` (a *tombstone*); the simulator counts
tombstones and compacts the heap in place once they outnumber live
events, so long churn runs cannot accumulate dead entries.

:class:`EventHandle` is the public cancellable reference returned by
:meth:`~repro.sim.simulator.Simulator.schedule`.
"""

from __future__ import annotations

from typing import Any, List, Optional

__all__ = ["EventHandle", "ENTRY_TIME", "ENTRY_SEQ", "ENTRY_CALLBACK", "ENTRY_ARGS"]

#: Indices into a heap entry ``[time, seq, callback, args]``.
ENTRY_TIME = 0
ENTRY_SEQ = 1
ENTRY_CALLBACK = 2
ENTRY_ARGS = 3


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("_entry", "_sim", "_cancelled", "label")

    def __init__(
        self,
        entry: List[Any],
        sim: Optional[Any] = None,
        label: Optional[str] = None,
    ) -> None:
        self._entry = entry
        self._sim = sim
        self._cancelled = False
        self.label = label

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._entry[ENTRY_TIME]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        Cancelling leaves a tombstone in the simulator's heap; the
        simulator reclaims tombstones in bulk once they outnumber live
        events (see ``Simulator.queue_size`` vs ``Simulator.pending``).
        """
        if self._cancelled:
            return
        self._cancelled = True
        entry = self._entry
        if entry[ENTRY_CALLBACK] is not None:
            entry[ENTRY_CALLBACK] = None
            entry[ENTRY_ARGS] = ()
            if self._sim is not None:
                self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self._cancelled else ""
        return f"EventHandle(t={self.time:.4f}{state})"
