"""Peer liveness: heartbeats in, two-level dead-peer detection out.

The table holds the peers an endpoint *watches* — those it exchanges
trusted-link frames with — not everyone whose address it knows (that
is the endpoint's address book).  A peer enters on the first
trusted-link frame in either direction: our send to it, its heartbeat,
or its identified shuffle offer; the latter two also refresh its
entry.  A hello or an ack introduces an address and refreshes nothing.
A periodic check then applies the classic two-level scheme from gossip
deployments:

* silent for ``suspect_after`` time units -> **suspect**: the peer is
  kept and the endpoint sends it a direct probe (a heartbeat with
  ``reply_wanted``), because the silence may be loss, not death;
* silent for ``dead_after`` -> **dead**: the peer is dropped and its
  routes pruned; its address stays in the book, so the next
  trusted-link frame either way starts a fresh watch.

The table never reads a clock itself — callers pass ``now`` — so the
same logic is exercised deterministically under the simulator and for
real under a wall clock.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..errors import NetError
from .transport import Endpoint

__all__ = ["PeerRecord", "PeerTable"]


@dataclasses.dataclass
class PeerRecord:
    """Book-keeping for one known peer."""

    node_id: int
    address: Endpoint
    last_heard: float
    suspect: bool = False


class PeerTable:
    """Watched peers, their addresses, and their liveness state."""

    def __init__(self, suspect_after: float, dead_after: float) -> None:
        if not 0 < suspect_after < dead_after:
            raise NetError("need 0 < suspect_after < dead_after")
        self._suspect_after = suspect_after
        self._dead_after = dead_after
        self._peers: Dict[int, PeerRecord] = {}
        self.suspected_total = 0
        self.declared_dead_total = 0

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._peers

    def note_heard(self, node_id: int, address: Endpoint, now: float) -> bool:
        """Record traffic from ``node_id``; returns True if newly seen."""
        record = self._peers.get(node_id)
        if record is None:
            self._peers[node_id] = PeerRecord(
                node_id=node_id, address=address, last_heard=now
            )
            return True
        record.address = address
        record.last_heard = now
        record.suspect = False
        return False

    def remove(self, node_id: int) -> Optional[PeerRecord]:
        """Drop a peer immediately (goodbye received)."""
        return self._peers.pop(node_id, None)

    def address_of(self, node_id: int) -> Optional[Endpoint]:
        """Transport address of a known peer, else None."""
        record = self._peers.get(node_id)
        return record.address if record is not None else None

    def peer_ids(self) -> List[int]:
        """Known peer ids, sorted (stable iteration for determinism)."""
        return sorted(self._peers)

    def check(self, now: float) -> Tuple[List[PeerRecord], List[PeerRecord]]:
        """Apply the two-level timeouts at time ``now``.

        Returns ``(newly_suspect, dead)``.  Newly suspect peers stay in
        the table (the caller probes them); dead peers are removed.
        """
        newly_suspect: List[PeerRecord] = []
        dead: List[PeerRecord] = []
        for node_id in sorted(self._peers):
            record = self._peers[node_id]
            silence = now - record.last_heard
            if silence >= self._dead_after:
                dead.append(record)
            elif silence >= self._suspect_after and not record.suspect:
                record.suspect = True
                newly_suspect.append(record)
        for record in dead:
            del self._peers[record.node_id]
        self.suspected_total += len(newly_suspect)
        self.declared_dead_total += len(dead)
        return newly_suspect, dead
