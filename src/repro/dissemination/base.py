"""Common machinery for data-dissemination protocols.

The paper positions the overlay as a substrate for "reliable and
privacy-preserving message broadcast by using controlled flooding,
epidemic dissemination, or an additional routing layer".  This package
implements the first two on top of a running
:class:`~repro.core.Overlay`.

A dissemination protocol installs itself as the ``app_handler`` of
every overlay node; application messages ride the same
privacy-preserving links as the maintenance gossip (trusted links via
the anonymity service, pseudonym links via the pseudonym service), so
broadcasting discloses nothing the overlay itself does not.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core import Overlay
from ..errors import DisseminationError

__all__ = [
    "AppMessage",
    "BroadcastRecord",
    "Disseminator",
    "build_channel_lists",
    "channel_keys",
]


# splitmix64 finalizer: the stateless mixer behind counter-keyed fanout
# sampling.  Both the object plane (one activation at a time) and the
# batch plane (whole frontiers at once) derive per-channel selection
# keys from it, which is what makes vectorized sampling byte-identical
# to sequential sampling: the keys depend only on
# (broadcast key, round, node, channel index), never on visit order.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_ROUND_SALT = np.uint64(0xD6E8FEB86659FD93)
_CHANNEL_SALT = np.uint64(0xA24BAED4963EE407)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 scalars or arrays."""
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
        return z ^ (z >> np.uint64(31))


def channel_key_base(broadcast_key, round_index, node_id):
    """Selection seed for one (broadcast, round, node) activation.

    Array-capable: pass equal-length uint64-coercible arrays to derive
    a whole frontier's seeds at once.
    """
    key = np.asarray(broadcast_key, dtype=np.uint64)
    rnd = np.asarray(round_index, dtype=np.uint64)
    node = np.asarray(node_id, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(_mix64(key ^ (rnd * _ROUND_SALT)) ^ _mix64(node))


def channel_keys(broadcast_key, round_index, node_id, count: int) -> np.ndarray:
    """Per-channel sampling keys for one activation.

    An activation with ``count`` channels selects the ``fanout``
    channels with the smallest keys (ties broken by channel index).
    """
    base = channel_key_base(broadcast_key, round_index, node_id)
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(base ^ (idx * _CHANNEL_SALT))


@dataclasses.dataclass(frozen=True)
class AppMessage:
    """An application-layer broadcast message.

    ``hops_left`` implements controlled flooding's TTL; ``message_id``
    provides duplicate suppression.  The payload is opaque to the
    overlay (and assumed end-to-end encrypted in a deployment).
    """

    message_id: int
    payload: Any
    hops_left: int


class BroadcastRecord:
    """Delivery bookkeeping for one broadcast."""

    def __init__(self, message_id: int, origin: int, started_at: float) -> None:
        self.message_id = message_id
        self.origin = origin
        self.started_at = started_at
        self.delivery_times: Dict[int, float] = {origin: started_at}
        #: Hop-count round at which each node first received the
        #: message (origin is round 0).  Unlike ``delivery_times`` this
        #: is latency-model independent, so it is directly comparable
        #: across the event-driven and batch planes.
        self.delivery_rounds: Dict[int, int] = {origin: 0}
        self.forwards = 0

    def deliveries(self) -> int:
        """Number of distinct nodes that received the message."""
        return len(self.delivery_times)

    def coverage(self, num_nodes: int) -> float:
        """Fraction of ``num_nodes`` reached (origin included)."""
        if num_nodes <= 0:
            raise DisseminationError("num_nodes must be positive")
        return len(self.delivery_times) / num_nodes

    def latency_of(self, node_id: int) -> Optional[float]:
        """Delivery latency for one node (None if never delivered)."""
        delivered = self.delivery_times.get(node_id)
        if delivered is None:
            return None
        return delivered - self.started_at

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile delivery latency over reached nodes.

        Only reached nodes contribute (the origin counts, at latency
        zero); use :meth:`coverage` alongside this — a broadcast that
        reached nobody beyond the origin reports 0.0 here.
        """
        if not 0.0 <= q <= 100.0:
            raise DisseminationError("percentile must be in [0, 100]")
        if not self.delivery_times:
            return 0.0
        latencies = np.array(
            [time - self.started_at for time in self.delivery_times.values()]
        )
        return float(np.percentile(latencies, q))


def build_channel_lists(overlay: Overlay) -> Dict[int, List[Tuple[str, Any, int]]]:
    """Per-node bidirectional channel lists at the current instant.

    Overlay links are bidirectional channels, so each unexpired
    pseudonym link contributes a send option at *both* ends: the
    establishing end sends to the pseudonym's endpoint, the owning end
    pushes down the same channel (``send_reverse``).  Trusted links
    appear at both ends anyway (the trust graph is undirected).

    Each entry is ``(kind, target, destination)`` where ``target`` is
    what the link layer needs (a node id, a pseudonym address, or a
    holder id for reverse sends) and ``destination`` is the node id the
    message lands on — the resolved form the batch plane's channel
    snapshot is built from.
    """
    now = overlay.sim.now
    adjacency: Dict[int, List[Tuple[str, Any, int]]] = {
        node.node_id: [] for node in overlay.nodes
    }
    for node in overlay.nodes:
        for neighbor in node.links.trusted:
            adjacency[node.node_id].append(("trusted", neighbor, neighbor))
        for pseudonym in node.links.pseudonym_links():
            if pseudonym.is_expired(now):
                continue
            owner = overlay.owner_of_value(pseudonym.value)
            if owner is None or owner == node.node_id:
                continue
            adjacency[node.node_id].append(("out", pseudonym.address, owner))
            adjacency[owner].append(("reverse", node.node_id, node.node_id))
    return adjacency


class Disseminator:
    """Base class: handler installation, dedup, and send primitives."""

    def __init__(self, overlay: Overlay) -> None:
        self._overlay = overlay
        self._records: Dict[int, BroadcastRecord] = {}
        self._message_ids = itertools.count(1)
        self._installed = False
        self._rng = overlay.substream("dissemination")
        self._adjacency: Optional[Dict[int, list]] = None
        self._adjacency_epoch: Optional[Tuple[float, int, int]] = None

    @property
    def overlay(self) -> Overlay:
        """The substrate this protocol runs on."""
        return self._overlay

    def install(self) -> None:
        """Attach this protocol to every overlay node."""
        if self._installed:
            raise DisseminationError("disseminator already installed")
        self._installed = True
        for node in self._overlay.nodes:
            node.app_handler = self._on_deliver

    def record(self, message_id: int) -> BroadcastRecord:
        """Bookkeeping for a broadcast started by this disseminator."""
        try:
            return self._records[message_id]
        except KeyError:
            raise DisseminationError(f"unknown message id {message_id}") from None

    def _new_record(self, origin: int) -> BroadcastRecord:
        message_id = next(self._message_ids)
        record = BroadcastRecord(message_id, origin, self._overlay.sim.now)
        self._records[message_id] = record
        # Refresh the channel map so the broadcast sees current links
        # (a no-op when nothing changed since the last broadcast).
        self._refresh_adjacency()
        return record

    def _mark_delivery(
        self, message_id: int, node_id: int, round_index: Optional[int] = None
    ) -> bool:
        """Record a first delivery; returns False for duplicates."""
        record = self._records.get(message_id)
        if record is None:
            return False
        if node_id in record.delivery_times:
            return False
        record.delivery_times[node_id] = self._overlay.sim.now
        if round_index is not None:
            record.delivery_rounds[node_id] = round_index
        return True

    def _channel_epoch(self) -> Tuple[float, int, int]:
        """Cache key for the channel map.

        Pseudonym channels expire by sim time and every link mutation
        bumps a monotone per-node version counter, so
        ``(now, node count, summed versions)`` changes whenever the
        channel map could.  (Pseudonym ownership is registered at mint
        time, before a link can circulate, so the owner registry never
        invalidates an adjacency on its own.)
        """
        versions = 0
        for node in self._overlay.nodes:
            links = node.links
            versions += links.version + links.trusted_version
        return (self._overlay.sim.now, len(self._overlay.nodes), versions)

    def _refresh_adjacency(self) -> Dict[int, list]:
        """Return the channel map, rebuilding only when stale.

        The O(N+E) rebuild used to run on every ``broadcast()``; the
        epoch check reduces multi-broadcast runs over a quiescent
        overlay to one O(N) counter scan per broadcast.
        """
        epoch = self._channel_epoch()
        if self._adjacency is None or epoch != self._adjacency_epoch:
            self._adjacency = build_channel_lists(self._overlay)
            self._adjacency_epoch = epoch
        return self._adjacency

    def _send_along_links(
        self,
        node_id: int,
        message: AppMessage,
        fanout: Optional[int],
        selection_key: int,
        round_index: int,
    ) -> int:
        """Forward ``message`` over a node's bidirectional channels.

        Sends to all channels, or to the ``fanout`` channels with the
        smallest :func:`channel_keys` for this activation (counter-keyed
        sampling, ties broken by channel index), which the batch engine
        reproduces exactly.  Returns the number of messages sent.
        """
        if self._adjacency is None:
            self._refresh_adjacency()
        channels = self._adjacency.get(node_id, [])
        if fanout is not None and fanout < len(channels):
            keys = channel_keys(selection_key, round_index, node_id, len(channels))
            order = np.argsort(keys, kind="stable")
            channels = [channels[int(index)] for index in order[:fanout]]
        layer = self._overlay.link_layer
        sent = 0
        for kind, target, _destination in channels:
            if kind == "trusted":
                layer.send_to_node(node_id, target, message)
            elif kind == "out":
                layer.send_to_endpoint(node_id, target, message)
            else:  # reverse: push down an established incoming channel
                layer.send_reverse(node_id, target, message)
            sent += 1
        record = self._records.get(message.message_id)
        if record is not None:
            record.forwards += sent
        return sent

    def _on_deliver(self, node_id: int, payload: Any) -> None:
        raise NotImplementedError("subclasses implement delivery handling")
