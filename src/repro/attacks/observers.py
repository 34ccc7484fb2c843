"""Internal-observer instrumentation.

An internal observer is a participating node that records everything it
legitimately sees: the shuffle sets it receives, when, and over which
reply channel.  A coalition pools those observations.  This module taps
the overlay's per-node ``observer`` hook — it never reads state a real
node would not have.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set

from ..core import Overlay
from ..errors import ExperimentError

__all__ = ["Sighting", "ObserverCoalition"]


@dataclasses.dataclass(frozen=True)
class Sighting:
    """One pseudonym observation by one coalition member."""

    observer_id: int
    time: float
    value: int
    expires_at: float
    event: str  # "shuffle_request_received" or "shuffle_response_received"


class ObserverCoalition:
    """A set of colluding internal observers pooling observations."""

    def __init__(self, overlay: Overlay, members: Sequence[int]) -> None:
        if not members:
            raise ExperimentError("coalition must not be empty")
        self._overlay = overlay
        self._members = list(dict.fromkeys(members))
        for member in self._members:
            if not 0 <= member < len(overlay.nodes):
                raise ExperimentError(f"no such node {member}")
        self._sightings: List[Sighting] = []
        self._values_seen: Set[int] = set()
        self._first_seen: Dict[int, float] = {}
        self._installed = False

    @property
    def members(self) -> List[int]:
        """The colluding node ids."""
        return list(self._members)

    def install(self) -> None:
        """Attach observation hooks to every coalition member."""
        if self._installed:
            raise ExperimentError("coalition already installed")
        self._installed = True
        for member in self._members:
            node = self._overlay.nodes[member]
            node.observer = self._make_hook(member)

    def _make_hook(self, member: int):
        def hook(event: str, details: dict) -> None:
            if event not in (
                "shuffle_request_received",
                "shuffle_response_received",
            ):
                return
            time = details["time"]
            for pseudonym in details["entries"]:
                self._sightings.append(
                    Sighting(
                        observer_id=member,
                        time=time,
                        value=pseudonym.value,
                        expires_at=pseudonym.expires_at,
                        event=event,
                    )
                )
                if pseudonym.value not in self._values_seen:
                    self._values_seen.add(pseudonym.value)
                    self._first_seen[pseudonym.value] = time

        return hook

    # ------------------------------------------------------------------
    # pooled knowledge
    # ------------------------------------------------------------------

    def sightings(self) -> List[Sighting]:
        """All observations, in arrival order."""
        return list(self._sightings)

    def distinct_values(self) -> Set[int]:
        """Every pseudonym value the coalition has ever seen."""
        return set(self._values_seen)

    def first_sighting_time(self, value: int) -> Optional[float]:
        """When the coalition first saw ``value`` (None if never)."""
        return self._first_seen.get(value)

    def sightings_of(self, value: int) -> List[Sighting]:
        """All observations of one pseudonym value."""
        return [sighting for sighting in self._sightings if sighting.value == value]
