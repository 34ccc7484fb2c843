"""Columnar dissemination: vectorized frontier rounds at million-message scale.

The object-plane disseminator
(:class:`~repro.dissemination.epidemic.EpidemicBroadcast`, which also
floods) runs one Python callback per message hop, which caps practical
runs around 10⁴ deliveries.  This module re-states the same protocol,
with the same ``fanout`` / ``ttl`` / ``infect_forever`` knobs, as
columnar batch kernels:

* :class:`ChannelSnapshot` compiles the overlay's live bidirectional
  channels — trusted links plus unexpired pseudonym links at *both*
  ends, exactly the channel semantics of
  :func:`repro.dissemination.base.build_channel_lists` — into a flat
  CSR over resolved destination node ids.
* :class:`BroadcastLedger` replaces dict-of-dicts
  :class:`~repro.dissemination.base.BroadcastRecord` bookkeeping with
  flat columns (uint8 TTLs, int16 delivery-round matrix, int64 forward
  and delivery counters) plus lazy :class:`LedgerRecordView` objects
  that quack like ``BroadcastRecord`` for reporting code.
* :class:`BatchBroadcastEngine` advances *all* active broadcasts one
  frontier round per :meth:`~BatchBroadcastEngine.step`: fanout
  selection per degree class by partition, duplicate suppression by one
  sort of the ``broadcast × node`` cell codes, and vectorized delivery
  marking in place of per-hop ``app_handler`` calls.

Exactness contract
------------------
The engine is pinned byte-identical to the object plane (same delivery
sets, same per-node delivery rounds, same forward counts) when run
against :class:`~repro.dissemination.epidemic.EpidemicBroadcast` with
the same knobs over the same :class:`ChannelSnapshot`.  The mechanism
is counter-keyed sampling (:func:`repro.dissemination.base.channel_keys`):
each broadcast draws *one* 63-bit key from the shared dissemination RNG
substream, and every activation's channel subset is a pure function of
``(key, round, node, channel index)`` — order-independent, so sampling
a whole frontier at once equals sampling its activations one by one.
See ``docs/dissemination.md`` for the full contract and its test
anchors in ``tests/test_dissemination_batch.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import DisseminationError
from ..rng import random_bits
from .base import _CHANNEL_SALT, _mix64, build_channel_lists, channel_key_base

__all__ = [
    "ChannelSnapshot",
    "BroadcastLedger",
    "LedgerRecordView",
    "BatchBroadcastEngine",
]


def _cumsum0(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum with a leading zero (CSR indptr shape)."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def _place(
    targets: np.ndarray,
    block_start: np.ndarray,
    degree: np.ndarray,
    values: np.ndarray,
) -> None:
    """Scatter ``values``, grouped by row with ``degree[n]`` entries for
    row ``n`` in row order, to ``targets[block_start[n]:]``."""
    position = np.repeat(block_start - _cumsum0(degree)[:-1], degree)
    position += np.arange(len(values), dtype=np.int64)
    targets[position] = values


def _smallest_keys(keys: np.ndarray, fanout: int) -> np.ndarray:
    """Column indices of each row's ``fanout`` smallest keys.

    The same set per row as the first ``fanout`` columns of a stable
    row-wise argsort, in no particular order.  A partition puts the
    ``fanout``-th smallest key at column ``fanout - 1``; the pick is
    unique, so no tie-break can change it, when exactly ``fanout`` keys
    of the row are at most that key.  Only rows where a tie straddles
    the boundary take the stable argsort, which breaks the tie by
    channel index.
    """
    chosen = np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]
    kth = keys[np.arange(len(keys)), chosen[:, -1]]
    at_most = keys <= kth[:, None]
    if np.count_nonzero(at_most) != at_most.shape[0] * fanout:
        tied = np.flatnonzero(at_most.sum(axis=1) != fanout)
        chosen[tied] = np.argsort(keys[tied], axis=1, kind="stable")[
            :, :fanout
        ]
    return chosen


class ChannelSnapshot:
    """A frozen CSR view of the overlay's bidirectional channels.

    Row ``n`` lists the destination node id of every channel node ``n``
    can currently send over.  Built either from an object-plane
    :class:`~repro.core.Overlay` (preserving that plane's exact channel
    ordering, so counter-keyed sampling picks identical subsets) or
    from a :class:`~repro.core.batch.BatchOverlay` via its
    :meth:`~repro.core.batch.BatchOverlay.channel_edges` hook.

    The snapshot is an instant in time: channel churn after the build
    is invisible to it, matching the object plane's per-broadcast
    adjacency freeze.
    """

    __slots__ = ("num_nodes", "indptr", "targets")

    def __init__(self, indptr: np.ndarray, targets: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.targets = np.ascontiguousarray(targets, dtype=np.int64)
        self.num_nodes = len(self.indptr) - 1
        if self.num_nodes < 0:
            raise DisseminationError("indptr must have at least one entry")
        if int(self.indptr[-1]) != len(self.targets):
            raise DisseminationError(
                f"indptr covers {int(self.indptr[-1])} channels, "
                f"targets has {len(self.targets)}"
            )

    @property
    def channel_count(self) -> int:
        """Total directed channels in the snapshot."""
        return len(self.targets)

    def degrees(self) -> np.ndarray:
        """Per-node channel counts."""
        return np.diff(self.indptr)

    def memory_bytes(self) -> int:
        """Deterministic storage accounting."""
        return self.indptr.nbytes + self.targets.nbytes

    @classmethod
    def from_overlay(cls, overlay) -> "ChannelSnapshot":
        """Compile an object-plane overlay's channel lists.

        Channel order within each row is exactly the order
        :func:`~repro.dissemination.base.build_channel_lists` produces
        (trusted/out entries in node-visit order with reverse entries
        interleaved), which is what makes counter-keyed subsets match
        the object plane index for index.
        """
        lists = build_channel_lists(overlay)
        num_nodes = len(overlay.nodes)
        degrees = np.array(
            [len(lists[node.node_id]) for node in overlay.nodes], dtype=np.int64
        )
        indptr = _cumsum0(degrees)
        targets = np.empty(int(indptr[-1]), dtype=np.int64)
        position = 0
        for node in overlay.nodes:
            for _kind, _target, destination in lists[node.node_id]:
                targets[position] = destination
                position += 1
        return cls(indptr, targets)

    @classmethod
    def from_batch_overlay(cls, overlay) -> "ChannelSnapshot":
        """Compile a :class:`~repro.core.batch.BatchOverlay`'s channels.

        Per row the canonical order is: trusted neighbours (CSR
        order), then "out" channels (link-table order), then "reverse"
        channels (holder order).  This differs from the object plane's
        interleaved order — exact cross-plane equality is defined over
        a *shared* snapshot, which the differential workloads use.

        The out block is placed without a sort: ``channel_edges``
        delivers ``holder`` ascending with each holder's links in
        link-table order, and a :class:`DisseminationError` names that
        contract when ``holder`` ever decreases.  The reverse block is
        one sort of ``owner × N + holder`` codes.
        """
        indptr, indices, holder, owner = overlay.channel_edges()
        num_nodes = len(indptr) - 1
        if np.any(holder[1:] < holder[:-1]):
            raise DisseminationError(
                "channel_edges must list holder ascending, each holder's "
                "links in link-table order"
            )
        trusted_deg = np.diff(indptr)
        out_deg = np.bincount(holder, minlength=num_nodes)
        reverse_deg = np.bincount(owner, minlength=num_nodes)
        new_indptr = _cumsum0(trusted_deg + out_deg + reverse_deg)
        targets = np.empty(int(new_indptr[-1]), dtype=np.int64)
        row_start = new_indptr[:-1]
        _place(targets, row_start, trusted_deg, indices)
        _place(targets, row_start + trusted_deg, out_deg, owner)
        code = np.sort(owner * np.int64(num_nodes) + holder)
        _place(
            targets,
            new_indptr[1:] - reverse_deg,
            reverse_deg,
            code % np.int64(num_nodes),
        )
        return cls(new_indptr, targets)


class LedgerRecordView:
    """A lazy, read-only view of one ledger row.

    Duck-compatible with
    :class:`~repro.dissemination.base.BroadcastRecord`; the time axis
    is frontier rounds, so latencies are hop counts.
    """

    __slots__ = ("_ledger", "_row")

    def __init__(self, ledger: "BroadcastLedger", row: int) -> None:
        self._ledger = ledger
        self._row = row

    @property
    def message_id(self) -> int:
        """1-based message id (row order of :meth:`BroadcastLedger.open`)."""
        return self._row + 1

    @property
    def origin(self) -> int:
        """The broadcasting node."""
        return int(self._ledger.origins[self._row])

    @property
    def started_at(self) -> float:
        """Engine round at which the broadcast started."""
        return float(self._ledger.start_rounds[self._row])

    @property
    def forwards(self) -> int:
        """Total messages sent on behalf of this broadcast."""
        return int(self._ledger.forwards[self._row])

    @property
    def payload(self) -> Any:
        """The broadcast payload (opaque)."""
        return self._ledger.payloads[self._row]

    @property
    def delivery_rounds(self) -> Dict[int, int]:
        """Node id -> relative delivery round (origin is 0)."""
        row = self._ledger.delivery_round[self._row]
        reached = np.flatnonzero(row >= 0)
        return dict(zip(reached.tolist(), row[reached].tolist()))

    @property
    def delivery_times(self) -> Dict[int, float]:
        """Node id -> absolute delivery round, as floats.

        Shaped like ``BroadcastRecord.delivery_times`` with rounds for
        timestamps.
        """
        start = self.started_at
        return {
            node: start + float(rel)
            for node, rel in self.delivery_rounds.items()
        }

    def deliveries(self) -> int:
        """Number of distinct nodes that received the message."""
        return int(self._ledger.delivered[self._row])

    def coverage(self, num_nodes: int) -> float:
        """Fraction of ``num_nodes`` reached (origin included)."""
        if num_nodes <= 0:
            raise DisseminationError("num_nodes must be positive")
        return self.deliveries() / num_nodes

    def latency_of(self, node_id: int) -> Optional[float]:
        """Delivery latency in rounds (None if never delivered)."""
        if not 0 <= node_id < self._ledger.num_nodes:
            return None
        rel = int(self._ledger.delivery_round[self._row, node_id])
        if rel < 0:
            return None
        return float(rel)

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile delivery latency over reached nodes."""
        if not 0.0 <= q <= 100.0:
            raise DisseminationError("percentile must be in [0, 100]")
        row = self._ledger.delivery_round[self._row]
        reached = row[row >= 0]
        if not len(reached):
            return 0.0
        return float(np.percentile(reached, q))


class BroadcastLedger:
    """Columnar bookkeeping for many concurrent broadcasts.

    One row per broadcast: origin, counter-sampling key, uint8 TTL,
    fanout, start round, int64 forward/delivery counters, and an int16
    ``(broadcasts, num_nodes)`` delivery-round matrix (−1 = never
    delivered) in place of per-record dicts.  Rows are appended by
    :meth:`open` and read through :class:`LedgerRecordView`.
    """

    __slots__ = (
        "num_nodes",
        "origins",
        "keys",
        "ttls",
        "fanouts",
        "start_rounds",
        "forwards",
        "delivered",
        "delivery_round",
        "payloads",
        "_count",
    )

    def __init__(self, num_nodes: int, capacity: int = 16) -> None:
        if num_nodes <= 0:
            raise DisseminationError("num_nodes must be positive")
        capacity = max(1, capacity)
        self.num_nodes = num_nodes
        self.origins = np.zeros(capacity, dtype=np.int64)
        self.keys = np.zeros(capacity, dtype=np.uint64)
        self.ttls = np.zeros(capacity, dtype=np.uint8)
        self.fanouts = np.full(capacity, -1, dtype=np.int64)
        self.start_rounds = np.zeros(capacity, dtype=np.int64)
        self.forwards = np.zeros(capacity, dtype=np.int64)
        self.delivered = np.zeros(capacity, dtype=np.int64)
        self.delivery_round = np.full((capacity, num_nodes), -1, dtype=np.int16)
        self.payloads: List[Any] = []
        self._count = 0

    @property
    def count(self) -> int:
        """Number of broadcasts opened."""
        return self._count

    def _ensure_capacity(self, rows: int) -> None:
        capacity = len(self.origins)
        if self._count + rows <= capacity:
            return
        while capacity < self._count + rows:
            capacity *= 2
        grow = capacity - len(self.origins)
        self.origins = np.concatenate(
            (self.origins, np.zeros(grow, dtype=np.int64))
        )
        self.keys = np.concatenate((self.keys, np.zeros(grow, dtype=np.uint64)))
        self.ttls = np.concatenate((self.ttls, np.zeros(grow, dtype=np.uint8)))
        self.fanouts = np.concatenate(
            (self.fanouts, np.full(grow, -1, dtype=np.int64))
        )
        self.start_rounds = np.concatenate(
            (self.start_rounds, np.zeros(grow, dtype=np.int64))
        )
        self.forwards = np.concatenate(
            (self.forwards, np.zeros(grow, dtype=np.int64))
        )
        self.delivered = np.concatenate(
            (self.delivered, np.zeros(grow, dtype=np.int64))
        )
        self.delivery_round = np.concatenate(
            (
                self.delivery_round,
                np.full((grow, self.num_nodes), -1, dtype=np.int16),
            )
        )

    def open(
        self,
        origin: int,
        key: int,
        ttl: int,
        fanout: Optional[int],
        start_round: int,
        payload: Any = None,
    ) -> int:
        """Append a broadcast row; returns its 1-based message id.

        The origin counts as delivered at relative round 0, exactly as
        ``BroadcastRecord`` seeds ``delivery_times`` with the origin.
        """
        if not 1 <= ttl <= 255:
            raise DisseminationError("ttl must be in [1, 255]")
        self._ensure_capacity(1)
        row = self._count
        self.origins[row] = origin
        self.keys[row] = np.uint64(key)
        self.ttls[row] = ttl
        self.fanouts[row] = -1 if fanout is None else fanout
        self.start_rounds[row] = start_round
        self.delivery_round[row, origin] = 0
        self.delivered[row] = 1
        self.payloads.append(payload)
        self._count += 1
        return row + 1

    def record(self, message_id: int) -> LedgerRecordView:
        """A lazy view of one broadcast's bookkeeping."""
        if not 1 <= message_id <= self._count:
            raise DisseminationError(f"unknown message id {message_id}")
        return LedgerRecordView(self, message_id - 1)

    def records(self) -> Iterator[LedgerRecordView]:
        """Views of every opened broadcast, in message-id order."""
        for row in range(self._count):
            yield LedgerRecordView(self, row)

    def total_delivered(self) -> int:
        """Distinct (broadcast, node) deliveries across all rows."""
        return int(self.delivered[: self._count].sum())

    def memory_bytes(self) -> int:
        """Deterministic storage accounting."""
        return (
            self.origins.nbytes
            + self.keys.nbytes
            + self.ttls.nbytes
            + self.fanouts.nbytes
            + self.start_rounds.nbytes
            + self.forwards.nbytes
            + self.delivered.nbytes
            + self.delivery_round.nbytes
        )


class BatchBroadcastEngine:
    """Vectorized epidemic/flood dissemination over a channel snapshot.

    Parameters
    ----------
    snapshot:
        The frozen channel CSR broadcasts ride on.
    ttl:
        Hop budget per broadcast (1..255; stored as a uint8 column).
    fanout:
        Channels pushed per activation; ``None`` floods every channel.
    infect_forever:
        When True, every receipt re-triggers pushes (multiplicities are
        tracked per (broadcast, node, round) — bounded by fanoutᵗᵗˡ);
        when False, only first receipts push (infect-and-die, which is
        also flooding's duplicate suppression).
    rng:
        Source of per-broadcast 63-bit sampling keys; required in
        fanout mode.  Pass ``overlay.substream("dissemination")`` to
        draw the *same* key sequence as an object-plane
        ``EpidemicBroadcast`` with a finite fanout, or
        ``RandomStreams(seed).substream("aux", "dissemination")`` to
        reproduce it from scratch beside a ``BatchOverlay``.
    online:
        Optional bool mask (length ``num_nodes``).  Arrivals at offline
        nodes are dropped — the columnar form of ``NodeDirectory``
        delivering "iff the destination is online" — and offline
        origins refuse to broadcast.  The array is read live at each
        step, so a caller stepping churn between rounds is honoured.
    """

    __slots__ = (
        "_snapshot",
        "_ledger",
        "_ttl",
        "_fanout",
        "_infect_forever",
        "_rng",
        "_online",
        "_rounds",
        "_frontier_bid",
        "_frontier_node",
        "_frontier_mult",
        "_frontier_round",
        "_delivered_total",
    )

    def __init__(
        self,
        snapshot: ChannelSnapshot,
        fanout: Optional[int] = 4,
        ttl: int = 12,
        infect_forever: bool = False,
        rng: Optional[np.random.Generator] = None,
        online: Optional[np.ndarray] = None,
    ) -> None:
        if not 1 <= ttl <= 255:
            raise DisseminationError("ttl must be in [1, 255]")
        if fanout is not None and fanout < 1:
            raise DisseminationError("fanout must be at least 1")
        if fanout is None and infect_forever:
            raise DisseminationError(
                "infect_forever requires a finite fanout"
            )
        if fanout is not None and rng is None:
            raise DisseminationError(
                "fanout sampling needs an rng for per-broadcast keys"
            )
        if online is not None and len(online) != snapshot.num_nodes:
            raise DisseminationError(
                f"online mask covers {len(online)} nodes, "
                f"snapshot has {snapshot.num_nodes}"
            )
        if online is not None and online.dtype != bool:
            # An integer array would fancy-index arrivals, not mask them.
            raise DisseminationError(
                f"online mask must have dtype bool, got {online.dtype}"
            )
        self._snapshot = snapshot
        self._ledger = BroadcastLedger(snapshot.num_nodes)
        self._ttl = ttl
        self._fanout = fanout
        self._infect_forever = infect_forever
        self._rng = rng
        self._online = online
        self._rounds = 0
        self._frontier_bid = np.zeros(0, dtype=np.int64)
        self._frontier_node = np.zeros(0, dtype=np.int64)
        self._frontier_mult = np.zeros(0, dtype=np.int64)
        self._frontier_round = np.zeros(0, dtype=np.int64)
        self._delivered_total = 0

    @property
    def ledger(self) -> BroadcastLedger:
        """The columnar bookkeeping store."""
        return self._ledger

    @property
    def snapshot(self) -> ChannelSnapshot:
        """The channel CSR this engine runs over."""
        return self._snapshot

    @property
    def rounds(self) -> int:
        """Frontier rounds executed so far."""
        return self._rounds

    @property
    def frontier_size(self) -> int:
        """Pending activations for the next round."""
        return len(self._frontier_bid)

    @property
    def total_delivered(self) -> int:
        """Distinct (broadcast, node) deliveries, origins included."""
        return self._delivered_total

    def start(
        self,
        origins: Sequence[int],
        payloads: Optional[Sequence[Any]] = None,
    ) -> List[int]:
        """Open one broadcast per origin; returns their message ids.

        Keys are drawn one per broadcast in origin order — the same
        stream consumption as an object-plane ``broadcast()`` loop over
        the same origins.
        """
        origin_ids = np.asarray(origins, dtype=np.int64)
        if payloads is not None and len(payloads) != len(origin_ids):
            raise DisseminationError("one payload per origin required")
        # Validate every origin before the first ledger row or key draw,
        # so a refused call leaves ledger, frontier and rng untouched.
        for origin in origin_ids.tolist():
            if not 0 <= origin < self._snapshot.num_nodes:
                raise DisseminationError(f"origin {origin} out of range")
            if self._online is not None and not self._online[origin]:
                raise DisseminationError(f"origin node {origin} is offline")
        message_ids: List[int] = []
        for position, origin in enumerate(origin_ids.tolist()):
            key = 0
            if self._fanout is not None:
                key = random_bits(self._rng, 63)
            payload = payloads[position] if payloads is not None else None
            message_ids.append(
                self._ledger.open(
                    origin=origin,
                    key=key,
                    ttl=self._ttl,
                    fanout=self._fanout,
                    start_round=self._rounds,
                    payload=payload,
                )
            )
            self._delivered_total += 1
        rows = np.array([mid - 1 for mid in message_ids], dtype=np.int64)
        self._frontier_bid = np.concatenate((self._frontier_bid, rows))
        self._frontier_node = np.concatenate(
            (self._frontier_node, origin_ids)
        )
        self._frontier_mult = np.concatenate(
            (self._frontier_mult, np.ones(len(rows), dtype=np.int64))
        )
        self._frontier_round = np.concatenate(
            (self._frontier_round, np.zeros(len(rows), dtype=np.int64))
        )
        return message_ids

    def step(self) -> int:
        """Advance every active broadcast one frontier round.

        Returns the number of new (broadcast, node) deliveries.  One
        call picks every activation's channels (per degree class — no
        sort spans the frontier's channels), suppresses duplicates with
        one sort of the ``broadcast × node`` cell codes, marks
        deliveries into the ledger's round matrix, and assembles the
        next frontier in cell-code order — no per-message Python in the
        loop.  Every output is a sum or a per-cell write, so nothing
        here depends on the order of activations or arrivals.
        """
        bids = self._frontier_bid
        if not len(bids):
            return 0
        nodes = self._frontier_node
        mult = self._frontier_mult
        sender_round = self._frontier_round
        snapshot = self._snapshot
        ledger = self._ledger
        row_start = snapshot.indptr[nodes]
        degree = snapshot.indptr[nodes + 1] - row_start
        self._rounds += 1
        if not degree.any():
            self._clear_frontier()
            return 0
        fanout = self._fanout
        pair_parts, slot_parts = [], []
        if fanout is None:
            send_all = np.arange(len(bids), dtype=np.int64)
            sends_per_pair = degree
        else:
            # Activations with at most `fanout` channels send on all of
            # them and need no keys; the rest are sampled by degree.
            by_degree = np.argsort(degree)
            sorted_degree = degree[by_degree]
            cut = np.searchsorted(sorted_degree, fanout, side="right")
            send_all, sampled = by_degree[:cut], by_degree[cut:]
            sends_per_pair = np.minimum(degree, fanout)
            # Counter-keyed sampling, one dense (rows, d) key matrix per
            # degree class d: row for row the set the object plane's
            # stable argsort of channel_keys(...) picks (_smallest_keys).
            base = channel_key_base(
                ledger.keys[bids[sampled]],
                sender_round[sampled],
                nodes[sampled],
            )
            class_degree = sorted_degree[cut:]
            class_lo = np.flatnonzero(np.diff(class_degree, prepend=-1))
            class_hi = np.append(class_lo[1:], len(sampled))
            salts = np.arange(
                1, int(sorted_degree[-1]) + 1, dtype=np.uint64
            ) * _CHANNEL_SALT
            chosen = np.empty((len(sampled), fanout), dtype=np.int64)
            for d, lo, hi in zip(
                class_degree[class_lo].tolist(),
                class_lo.tolist(),
                class_hi.tolist(),
            ):
                keys = _mix64(base[lo:hi, None] ^ salts[:d])
                chosen[lo:hi] = _smallest_keys(keys, fanout)
            chosen += row_start[sampled][:, None]
            pair_parts.append(np.repeat(sampled, fanout))
            slot_parts.append(chosen.ravel())
        counts = degree[send_all]
        pair = np.repeat(send_all, counts)
        within = np.arange(len(pair), dtype=np.int64) - np.repeat(
            _cumsum0(counts)[:-1], counts
        )
        pair_parts.append(pair)
        slot_parts.append(row_start[pair] + within)
        pair = np.concatenate(pair_parts)
        destination = snapshot.targets[np.concatenate(slot_parts)]
        # Forwards count sends, not deliveries: messages to offline
        # nodes are sent and then dropped, exactly as the object
        # plane's link layer does.  np.add.at keeps multiplicities in
        # int64; a weighted np.bincount would accumulate in float64.
        np.add.at(ledger.forwards, bids, mult * sends_per_pair)
        # A cell code is also the flat index of the cell in the ledger's
        # round matrix.
        code = bids[pair] * np.int64(snapshot.num_nodes) + destination
        wanted = None if self._online is None else self._online[destination]
        if not self._infect_forever:
            # Infect-and-die: a re-delivery neither marks nor forwards,
            # so drop it before the sort; the survivors are exactly the
            # fresh cells.
            unseen = np.take(ledger.delivery_round, code) < 0
            wanted = unseen if wanted is None else wanted & unseen
        if wanted is not None:
            pair = pair[wanted]
            code = code[wanted]
        if not len(pair):
            self._clear_frontier()
            return 0
        order = np.argsort(code)
        code = code[order]
        first = np.flatnonzero(np.diff(code, prepend=-1))
        if self._infect_forever:
            # Path multiplicity: every receipt re-triggers, so carry
            # the number of same-round arrivals as a multiplicity (all
            # copies select the same counter-keyed channels).
            multiplicity = np.add.reduceat(mult[pair[order]], first)
        else:
            multiplicity = np.ones(len(first), dtype=np.int64)
        # `first` names one arrival per (broadcast, node) cell; which one
        # is immaterial: the cell fixes bid and node, and within a step
        # every activation of a broadcast carries the same round.
        code_u = code[first]
        pair_u = pair[order[first]]
        bid_u = bids[pair_u]
        node_u = code_u - bid_u * np.int64(snapshot.num_nodes)
        round_u = sender_round[pair_u] + 1
        within_budget = round_u < ledger.ttls[bid_u]
        self._frontier_bid = bid_u[within_budget]
        self._frontier_node = node_u[within_budget]
        self._frontier_mult = multiplicity[within_budget]
        self._frontier_round = round_u[within_budget]
        if self._infect_forever:
            # Re-deliveries stay in the frontier but mark nothing.
            fresh = np.take(ledger.delivery_round, code_u) < 0
            bid_u, code_u, round_u = bid_u[fresh], code_u[fresh], round_u[fresh]
        np.put(ledger.delivery_round, code_u, round_u.astype(np.int16))
        ledger.delivered += np.bincount(bid_u, minlength=len(ledger.delivered))
        self._delivered_total += len(bid_u)
        return len(bid_u)

    def run(self, max_rounds: Optional[int] = None) -> int:
        """Step until every frontier drains; returns new deliveries.

        TTL columns bound the rounds, so this always terminates; pass
        ``max_rounds`` to stop earlier (e.g. to interleave churn).
        """
        delivered = 0
        rounds = 0
        while len(self._frontier_bid):
            if max_rounds is not None and rounds >= max_rounds:
                break
            delivered += self.step()
            rounds += 1
        return delivered

    def broadcast(self, origin_id: int, payload: Any = None) -> LedgerRecordView:
        """Start one broadcast and run *all* active frontiers dry.

        Convenience mirror of the object plane's ``broadcast()``;
        returns the new broadcast's record view.
        """
        message_ids = self.start([origin_id], payloads=[payload])
        self.run()
        return self._ledger.record(message_ids[0])

    def _clear_frontier(self) -> None:
        self._frontier_bid = np.zeros(0, dtype=np.int64)
        self._frontier_node = np.zeros(0, dtype=np.int64)
        self._frontier_mult = np.zeros(0, dtype=np.int64)
        self._frontier_round = np.zeros(0, dtype=np.int64)

    def memory_bytes(self) -> int:
        """Deterministic storage accounting (snapshot + ledger)."""
        frontier = (
            self._frontier_bid.nbytes
            + self._frontier_node.nbytes
            + self._frontier_mult.nbytes
            + self._frontier_round.nbytes
        )
        return self._snapshot.memory_bytes() + self._ledger.memory_bytes() + frontier
