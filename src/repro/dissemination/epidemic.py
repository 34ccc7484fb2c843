"""Controlled flooding and epidemic (push-gossip) dissemination.

Every infected node forwards the message over its overlay channels
until the hop budget (TTL) is exhausted.  With ``fanout=None`` it
forwards over *all* of them — controlled flooding, which on a
connected, low-diameter overlay (exactly what the maintenance protocol
produces) reaches everyone within a small TTL.  With a finite fanout it
pushes to ``fanout`` channels per activation, in one of two classic
variants:

* **infect-forever** — every duplicate receipt triggers another round
  of pushes up to the hop limit; robust but chattier.
* **infect-and-die** — a node pushes only on first receipt; the cheap
  variant whose coverage depends on the overlay looking like a random
  graph (Erdős–Rényi-style gossip needs fanout ≈ ln N for full
  coverage, which the experiments demonstrate).

Fanout sampling is counter-keyed: each broadcast draws one 63-bit key
from the dissemination RNG stream, and every activation's channel
subset is derived statelessly from (key, round, node, channel index) —
order-independent sampling that
:class:`~repro.dissemination.batch.BatchBroadcastEngine` reproduces
byte-identically over whole frontiers at once.  A flood draws no key.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core import Overlay
from ..errors import DisseminationError
from ..rng import random_bits
from .base import AppMessage, BroadcastRecord, Disseminator

__all__ = ["EpidemicBroadcast"]


class EpidemicBroadcast(Disseminator):
    """Duplicate-suppressed flooding or random-fanout push gossip.

    Parameters
    ----------
    overlay:
        The substrate.  The disseminator must be :meth:`install`-ed
        before broadcasting.
    fanout:
        Channels pushed per activation; ``None`` floods every channel.
    ttl:
        Maximum hops from the origin.
    infect_forever:
        When True, duplicates re-trigger pushes (bounded by ``ttl``);
        when False (default), only the first receipt pushes.  A flood
        always suppresses duplicates.
    """

    def __init__(
        self,
        overlay: Overlay,
        fanout: Optional[int] = 4,
        ttl: int = 12,
        infect_forever: bool = False,
    ) -> None:
        super().__init__(overlay)
        if fanout is not None and fanout < 1:
            raise DisseminationError("fanout must be at least 1")
        if ttl < 1:
            raise DisseminationError("ttl must be at least 1")
        if fanout is None and infect_forever:
            raise DisseminationError("infect_forever requires a finite fanout")
        self._fanout = fanout
        self._ttl = ttl
        self._infect_forever = infect_forever
        self._broadcast_keys: Dict[int, int] = {}

    @property
    def fanout(self) -> Optional[int]:
        """Pushes per activation (``None``: flood every channel)."""
        return self._fanout

    def broadcast(self, origin_id: int, payload: Any) -> BroadcastRecord:
        """Start a broadcast from ``origin_id`` (must be online)."""
        if not 0 <= origin_id < len(self.overlay.nodes):
            raise DisseminationError(f"origin {origin_id} out of range")
        if not self.overlay.nodes[origin_id].online:
            raise DisseminationError(f"origin node {origin_id} is offline")
        record = self._new_record(origin_id)
        # The broadcast's single stream draw; every sampled subset
        # downstream is derived from this key statelessly.
        key = 0 if self._fanout is None else random_bits(self._rng, 63)
        self._broadcast_keys[record.message_id] = key
        message = AppMessage(
            message_id=record.message_id, payload=payload, hops_left=self._ttl
        )
        self._push(origin_id, message)
        return record

    def _push(self, node_id: int, message: AppMessage) -> None:
        self._send_along_links(
            node_id,
            message,
            fanout=self._fanout,
            selection_key=self._broadcast_keys[message.message_id],
            round_index=self._ttl - message.hops_left,
        )

    def _on_deliver(self, node_id: int, payload: Any) -> None:
        if not isinstance(payload, AppMessage):
            return
        round_index = self._ttl - payload.hops_left + 1
        first_receipt = self._mark_delivery(
            payload.message_id, node_id, round_index=round_index
        )
        if not first_receipt and not self._infect_forever:
            return
        if payload.hops_left <= 1:
            return
        forwarded = AppMessage(
            message_id=payload.message_id,
            payload=payload.payload,
            hops_left=payload.hops_left - 1,
        )
        self._push(node_id, forwarded)
