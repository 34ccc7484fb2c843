"""The overlay node: state machine, gossip engine, pseudonym lifecycle.

:class:`OverlayNode` implements one participant of the paper's overlay
layer (Section III):

* **Trusted links** to its trust-graph neighbors, available whenever
  both ends are online.
* **An own pseudonym**, created at start, renewed whenever it expires
  (Section III-C), and always included in outgoing shuffle sets.
* **A pseudonym cache** fed by the shuffling protocol (Section III-D1).
* **Sampler slots** that pick which cached pseudonyms become links
  (Section III-D2); the slot count ``S`` is fixed per node at
  ``max(min_pseudonym_links, target_degree - trusted_degree)`` so all
  nodes end up with a similar total degree.
* **Churn behaviour**: going offline stops the gossip timer but retains
  all state; rejoining re-arms the timer and lazily drops whatever
  expired in the meantime (Section II-D's rejoin semantics).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import NodeOfflineError, ProtocolError
from ..privlink import LinkLayer
from ..sim import Clock, EventHandle, PeriodicProcess
from .arena import ArenaCache, ArenaLinkSet, ArenaSlots, NodeArena
from .maintenance import FixedLifetime, LifetimePolicy
from .pseudonym import Pseudonym, mint_pseudonym
from .shuffle import ShuffleRequest, ShuffleResponse, make_shuffle_set

__all__ = ["NodeCounters", "OverlayNode"]

PseudonymListener = Callable[[int, Pseudonym], None]


class NodeCounters:
    """Cumulative per-node protocol counters (feed the overhead figures)."""

    __slots__ = (
        "messages_sent",
        "shuffles_initiated",
        "responses_sent",
        "shuffle_sets_absorbed",
        "pseudonyms_created",
        "online_time",
        "last_online_at",
    )

    def __init__(self) -> None:
        self.messages_sent = 0
        self.shuffles_initiated = 0
        self.responses_sent = 0
        self.shuffle_sets_absorbed = 0
        self.pseudonyms_created = 0
        self.online_time = 0.0
        self.last_online_at: Optional[float] = None


class OverlayNode:
    """One participant in the privacy-preserving overlay.

    Parameters
    ----------
    node_id:
        The node's index in the trust graph.
    trusted_neighbors:
        Trust-graph adjacency — the only knowledge the node starts with.
    slot_count:
        Sampler size ``S`` for this node (degree-adaptive, computed by
        the protocol layer).
    cache_size, shuffle_length, pseudonym_lifetime:
        Protocol parameters (Table I).
    sim, link_layer, rng:
        Infrastructure: the simulator, the privacy-preserving link
        layer, and this node's private random stream.
    pseudonym_listener:
        Measurement hook called as ``listener(node_id, pseudonym)``
        whenever this node mints a pseudonym; the protocol layer uses it
        to maintain the omniscient owner registry for snapshots.  It is
        not part of the protocol.
    arena:
        The overlay's shared :class:`NodeArena`; this node's state is
        row ``node_id`` of it.  A node built on its own (``repro node``)
        leaves it None and gets a private one-row arena.
    """

    __slots__ = (
        "node_id",
        "links",
        "cache",
        "slots",
        "sampler_mode",
        "online",
        "own",
        "counters",
        "app_handler",
        "observer",
        "shuffle_filter",
        "_shuffle_length",
        "_lifetime_policy",
        "_slot_count",
        "_went_offline_at",
        "_sim",
        "_link_layer",
        "_rng",
        "_pseudonym_listener",
        "online_listener",
        "_renewal_handle",
        "_last_sent_entries",
        "_shuffler",
    )

    def __init__(
        self,
        node_id: int,
        trusted_neighbors: Iterable[int],
        slot_count: int,
        cache_size: int,
        shuffle_length: int,
        pseudonym_lifetime: float,
        sim: Clock,
        link_layer: LinkLayer,
        rng: np.random.Generator,
        pseudonym_listener: Optional[PseudonymListener] = None,
        sampler_mode: str = "slots",
        lifetime_policy: Optional[LifetimePolicy] = None,
        arena: Optional[NodeArena] = None,
    ) -> None:
        if shuffle_length < 1:
            raise ProtocolError("shuffle_length must be at least 1")
        if pseudonym_lifetime <= 0:
            raise ProtocolError("pseudonym_lifetime must be positive")
        if sampler_mode not in ("slots", "cache"):
            raise ProtocolError(
                f"sampler_mode must be 'slots' or 'cache', got {sampler_mode!r}"
            )
        self.node_id = node_id
        # State lives in one arena row (docs/node_plane.md).  Inside an
        # overlay the row is the node id; a standalone node (the ``repro
        # node`` CLI) owns a private one-row arena, where it is row 0.
        if arena is None:
            arena = NodeArena(node_chunk=1)
            row = 0
        else:
            row = node_id
        arena.register_node(row, slot_count, cache_size)
        self.links = ArenaLinkSet(arena, row, trusted_neighbors)
        self.cache = ArenaCache(arena, row, cache_size)
        self.slots = ArenaSlots(arena, row, slot_count, rng)
        self._shuffle_length = shuffle_length
        self._lifetime_policy = (
            lifetime_policy
            if lifetime_policy is not None
            else FixedLifetime(pseudonym_lifetime)
        )
        #: "slots" = the paper's Brahms-style sampler; "cache" = the
        #: naive ablation where links follow the newest cache entries.
        self.sampler_mode = sampler_mode
        self._slot_count = slot_count
        self._went_offline_at: Optional[float] = None
        self._sim = sim
        self._link_layer = link_layer
        self._rng = rng
        self._pseudonym_listener = pseudonym_listener
        #: Measurement hook ``listener(node_id, online)`` fired after
        #: every actual online/offline transition (suppressed when the
        #: call is a no-op).  The protocol layer uses it to invalidate
        #: cached online sets; it is not part of the protocol.
        self.online_listener: Optional[Callable[[int, bool], None]] = None

        self.online = False
        self.own: Optional[Pseudonym] = None
        self.counters = NodeCounters()
        #: Optional application-layer handler ``(node_id, payload) -> None``
        #: installed by dissemination protocols.
        self.app_handler: Optional[Callable[[int, object], None]] = None
        #: Optional measurement hook ``(event, details) -> None`` fed with
        #: everything this node legitimately observes; used by the
        #: attack analyses (internal-observer threat model).
        self.observer: Optional[Callable[[str, dict], None]] = None
        #: Adversarial instrumentation: when set, outgoing shuffle sets
        #: pass through this filter.  Models protocol *deviation* (e.g.
        #: the III-E3 vertex-cut coalition forwarding only its own
        #: pseudonyms); honest nodes leave it None.
        self.shuffle_filter: Optional[
            Callable[[Tuple[Pseudonym, ...]], Tuple[Pseudonym, ...]]
        ] = None
        self._renewal_handle: Optional[EventHandle] = None
        self._last_sent_entries: Tuple[Pseudonym, ...] = ()
        self._shuffler = PeriodicProcess(
            sim, period=1.0, callback=self._shuffle_tick, rng=rng, jitter=0.1
        )

        link_layer.register_node(node_id, self._on_message, lambda: self.online)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def come_online(self) -> None:
        """Join (or rejoin) the system.

        State is retained across offline periods; only expired material
        is dropped, and a fresh own pseudonym is minted if the previous
        one expired while offline.
        """
        if self.online:
            return
        self.online = True
        now = self._sim.now
        self.counters.last_online_at = now
        if self._went_offline_at is not None:
            # A node trivially observes its own offline stints; adaptive
            # lifetime policies learn from them (Section III-C).
            self._lifetime_policy.observe_offline_duration(
                now - self._went_offline_at
            )
            self._went_offline_at = None
        self._expire_state(now)
        self._ensure_own_pseudonym(now)
        self._shuffler.start()
        if self.online_listener is not None:
            self.online_listener(self.node_id, True)

    def go_offline(self) -> None:
        """Leave the system, retaining all protocol state."""
        if not self.online:
            return
        self.online = False
        now = self._sim.now
        self._went_offline_at = now
        if self.counters.last_online_at is not None:
            self.counters.online_time += now - self.counters.last_online_at
            self.counters.last_online_at = None
        self._shuffler.stop()
        if self._renewal_handle is not None:
            self._renewal_handle.cancel()
            self._renewal_handle = None
        if self.online_listener is not None:
            self.online_listener(self.node_id, False)

    # ------------------------------------------------------------------
    # pseudonym lifecycle (Section III-C)
    # ------------------------------------------------------------------

    def _ensure_own_pseudonym(self, now: float) -> None:
        if self.own is not None and not self.own.is_expired(now):
            if self._renewal_handle is None:
                self._schedule_renewal()
            return
        if self.own is not None:
            # Retire the expired endpoint; links to it die via expiry on
            # the other nodes' side.
            self._link_layer.close_endpoint(self.own.address)
        address = self._link_layer.create_endpoint(self.node_id)
        self.own = mint_pseudonym(
            self._rng, address, now, self._lifetime_policy.next_lifetime()
        )
        self.counters.pseudonyms_created += 1
        if self._pseudonym_listener is not None:
            self._pseudonym_listener(self.node_id, self.own)
        self._schedule_renewal()

    def _schedule_renewal(self) -> None:
        if self._renewal_handle is not None:
            self._renewal_handle.cancel()
            self._renewal_handle = None
        if self.own is None or math.isinf(self.own.expires_at):
            return
        self._renewal_handle = self._sim.schedule(
            self.own.expires_at, self._renew_pseudonym
        )

    def _renew_pseudonym(self) -> None:
        self._renewal_handle = None
        if not self.online:
            return  # handled lazily on rejoin
        self._ensure_own_pseudonym(self._sim.now)

    # ------------------------------------------------------------------
    # gossip engine (Section III-D)
    # ------------------------------------------------------------------

    def _current_sample(self, now: float) -> list:
        if self.sampler_mode == "slots":
            return self.slots.sample()
        return self.cache.newest(self._slot_count, now)

    def _expire_state(self, now: float) -> None:
        expired = self.cache.remove_expired(now)
        if self.sampler_mode == "slots":
            if self.slots.expire(now) > 0:
                self.links.update_from_sample(self.slots.sample())
        elif expired > 0:
            self.links.update_from_sample(self._current_sample(now))

    def _build_shuffle_set(self, now: float) -> Tuple[Pseudonym, ...]:
        if self.own is None:
            raise NodeOfflineError("node has no pseudonym; is it online?")
        selection = self.cache.select_for_shuffle(
            self._rng, self._shuffle_length - 1, now
        )
        entries = make_shuffle_set(self.own, selection, self._shuffle_length)
        if self.shuffle_filter is not None:
            entries = self.shuffle_filter(entries)
            if not entries:
                entries = (self.own,)  # a set always carries something
        return entries

    def _shuffle_tick(self) -> None:
        if not self.online:
            return
        now = self._sim.now
        self._expire_state(now)
        target = self.links.pick_random_target(self._rng)
        if target is None or self.own is None:
            return
        entries = self._build_shuffle_set(now)
        self._last_sent_entries = entries
        if target.is_trusted:
            request = ShuffleRequest(entries=entries, reply_node=self.node_id)
            self._link_layer.send_to_node(self.node_id, target.node_id, request)
        else:
            request = ShuffleRequest(
                entries=entries, reply_address=self.own.address
            )
            self._link_layer.send_to_endpoint(
                self.node_id, target.pseudonym.address, request
            )
        self.counters.messages_sent += 1
        self.counters.shuffles_initiated += 1
        if self.observer is not None:
            self.observer(
                "shuffle_request_sent",
                {"time": now, "target": target, "entries": entries},
            )

    def _on_message(self, payload: object) -> None:
        if isinstance(payload, ShuffleRequest):
            self._handle_request(payload)
        elif isinstance(payload, ShuffleResponse):
            self._handle_response(payload)
        elif self.app_handler is not None:
            # Application-layer traffic (dissemination protocols).
            self.app_handler(self.node_id, payload)

    def _handle_request(self, request: ShuffleRequest) -> None:
        now = self._sim.now
        self._expire_state(now)
        self._ensure_own_pseudonym(now)
        response_entries = self._build_shuffle_set(now)
        response = ShuffleResponse(entries=response_entries)
        if request.reply_node is not None:
            self._link_layer.send_to_node(self.node_id, request.reply_node, response)
        elif request.reply_address is not None:
            self._link_layer.send_to_endpoint(
                self.node_id, request.reply_address, response
            )
        self.counters.messages_sent += 1
        self.counters.responses_sent += 1
        if self.observer is not None:
            self.observer(
                "shuffle_request_received",
                {
                    "time": now,
                    "entries": request.entries,
                    "reply_node": request.reply_node,
                    "reply_address": request.reply_address,
                },
            )
        self._absorb(request.entries, just_sent=response_entries)

    def _handle_response(self, response: ShuffleResponse) -> None:
        if self.observer is not None:
            self.observer(
                "shuffle_response_received",
                {"time": self._sim.now, "entries": response.entries},
            )
        self._absorb(response.entries, just_sent=self._last_sent_entries)

    def _absorb(
        self,
        received: Tuple[Pseudonym, ...],
        just_sent: Tuple[Pseudonym, ...],
    ) -> None:
        """Fold a received shuffle set into cache, slots, and links.

        "All pseudonyms in the received set, whether already in the
        cache or not, are sampled."
        """
        now = self._sim.now
        if self.own is None:
            return
        own_value = self.own.value
        # Filtered here, once, for the cache and the slots alike; hence
        # no ``own_value`` for ``merge`` to check a second time.
        usable = [
            pseudonym
            for pseudonym in received
            if pseudonym.value != own_value and now < pseudonym.expires_at
        ]
        self.cache.merge(usable, now, just_sent=just_sent)
        if self.sampler_mode == "slots":
            self.slots.expire(now)
            if usable:
                self.slots.offer_batch(usable)
        self.links.update_from_sample(self._current_sample(now))
        self.counters.shuffle_sets_absorbed += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def out_degree(self, now: Optional[float] = None) -> int:
        """Links this node currently maintains, excluding expired ones."""
        if now is None:
            now = self._sim.now
        valid_pseudonym_links = sum(
            not pseudonym.is_expired(now)
            for pseudonym in self.links.pseudonym_links()
        )
        return self.links.trusted_degree + valid_pseudonym_links

    def estimate_population(self, now: Optional[float] = None) -> int:
        """Estimate the number of participating nodes.

        Section III-E4: "all nodes will eventually see all pseudonyms in
        the system before they expire, which allows nodes to estimate
        the number of participating nodes.  This, however, does not
        violate our privacy requirements."  The estimator counts the
        distinct *live* pseudonym values this node currently knows (its
        cache, its links, itself) plus its trusted peers that own no
        known pseudonym — all information the protocol legitimately
        provides.
        """
        if now is None:
            now = self._sim.now
        values = {
            pseudonym.value
            for pseudonym in self.cache.pseudonyms()
            if not pseudonym.is_expired(now)
        }
        values.update(
            pseudonym.value
            for pseudonym in self.links.pseudonym_links()
            if not pseudonym.is_expired(now)
        )
        if self.own is not None and not self.own.is_expired(now):
            values.add(self.own.value)
        # Trusted peers participate whether or not their pseudonym has
        # reached us; counting them can only improve the lower bound.
        return max(len(values), self.links.trusted_degree + 1)

    def valid_pseudonym_links(self, now: Optional[float] = None) -> List[Pseudonym]:
        """Unexpired pseudonym links at ``now``."""
        if now is None:
            now = self._sim.now
        return [
            pseudonym
            for pseudonym in self.links.pseudonym_links()
            if not pseudonym.is_expired(now)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "online" if self.online else "offline"
        return (
            f"OverlayNode(id={self.node_id}, {state}, "
            f"trusted={self.links.trusted_degree}, "
            f"pseudonym_links={self.links.pseudonym_degree()})"
        )
