"""A simulated mix network (Chaum-style) and services built on it.

The paper's link layer can be realized with mix networks (Section
III-B): the sender wraps a message in one encryption layer per relay;
each relay strips a layer and forwards, so no relay knows its position
in the chain and an external observer cannot associate sender with
receiver.  Pseudonym endpoints follow the Tor-hidden-service / I2P
pattern: the *last relay* of a circuit built by the endpoint's owner
acts as the pseudonym's rendezvous point.

This module implements that machinery with simulated crypto
(:mod:`repro.privlink.crypto`):

* :class:`Relay` — strips one onion layer per message, enforces a
  replay cache (Section III-C's defense: remember digests of messages
  relayed to each pseudonym, drop repeats).
* :class:`MixNetwork` — the relay pool plus circuit construction.
* :class:`MixnetAnonymityService` — sender-built circuits terminating
  at a destination whose real ID is known.
* :class:`RendezvousPseudonymService` — owner-built circuits whose last
  relay is the pseudonym address; inbound messages traverse a
  sender-side circuit to the rendezvous relay, then the owner's return
  circuit.

Relays are modeled as third-party infrastructure with high availability
(the paper notes "existing anonymity services are known to provide high
availability"), so they are always online; participant liveness is
still checked at final delivery.  Every hop is written to the traffic
log, which the attack analyses consume.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import MixnetError, PseudonymError
from ..sim import Simulator
from .crypto import Sealed, header_digest, layer_digest, seal_layers
from .identity import KeyPair, KeyRegistry
from .link import Address, AnonymityService, NodeDirectory, PseudonymServiceBase
from .traffic import TrafficLog

__all__ = [
    "Relay",
    "MixNetwork",
    "MixnetAnonymityService",
    "RendezvousPseudonymService",
    "make_mixnet_link_layer",
]

# Routing-hint verbs understood by relays.
_HINT_RELAY = "relay"
_HINT_DELIVER = "deliver"
_HINT_RENDEZVOUS = "rendezvous"


class Relay:
    """One mix relay: a key pair, a forwarding engine, a replay cache.

    Replay digests are compact 64-bit integers (see
    :func:`~repro.privlink.crypto.layer_digest`), and the cache is
    *epoch-bounded*: when it reaches ``replay_cache_limit`` entries it
    is flushed wholesale and :attr:`replay_flushes` is incremented, so
    long churn runs cannot grow it without limit.
    """

    __slots__ = (
        "relay_id",
        "key_pair",
        "name",
        "_network",
        "_replay_cache",
        "_cache_limit",
        "forwarded",
        "replays_dropped",
        "replay_flushes",
        "replay_checked",
    )

    def __init__(
        self,
        relay_id: int,
        key_pair: KeyPair,
        network: "MixNetwork",
        replay_cache_limit: Optional[int] = 65536,
    ) -> None:
        self.relay_id = relay_id
        self.key_pair = key_pair
        # The endpoint identifier observers see for this relay; built
        # once — it labels every traffic record the relay touches.
        self.name = f"relay:{relay_id}"
        self._network = network
        self._replay_cache: Set[int] = set()
        self._cache_limit = replay_cache_limit
        self.forwarded = 0
        self.replays_dropped = 0
        self.replay_flushes = 0
        self.replay_checked = 0

    def replay_cache_size(self) -> int:
        """Number of remembered message digests."""
        return len(self._replay_cache)

    def flush_replay_cache(self) -> None:
        """Drop remembered digests.

        The overlay's ephemeral pseudonyms are what keep this cache
        bounded in the paper ("the space requirements [...] become
        bounded for each pseudonym"); the simulation exposes an explicit
        flush so long experiments can model cache turnover.
        """
        self._replay_cache.clear()

    def expected_replay_collisions(self) -> float:
        """Birthday-bound estimate of false replay drops this epoch.

        With 64-bit digests and ``n`` cached entries, roughly
        ``n * (n - 1) / 2^65`` distinct messages collide — below 1e-9
        even at the default 65536-entry flush limit, so compact digests
        are safe for replay detection.
        """
        n = len(self._replay_cache)
        return n * (n - 1) / 2.0**65

    def process(self, sealed: Any, arrived_from: str, time: float) -> None:
        """Strip one layer and act on the routing hint."""
        # Onions sealed along a cached circuit carry stamped digests;
        # read the stamp directly and fall back to the recursive
        # computation for everything else.
        try:
            digest = sealed._layer_digest
        except AttributeError:
            digest = layer_digest(sealed)
        self.replay_checked += 1
        cache = self._replay_cache
        if digest in cache:
            self.replays_dropped += 1
            return
        if self._cache_limit is not None and len(cache) >= self._cache_limit:
            cache.clear()
            self.replay_flushes += 1
        cache.add(digest)

        if not isinstance(sealed, Sealed):
            raise MixnetError(f"relay {self.relay_id} received a non-onion payload")
        # Inlined unseal(): this runs once per relay per message.
        key_pair = self.key_pair
        if key_pair.private != sealed.public_key:
            raise MixnetError(
                f"key {key_pair.private} cannot open layer sealed to "
                f"{sealed.public_key}"
            )
        hint = sealed.routing_hint
        inner = sealed.payload
        verb = hint[0]
        self.forwarded += 1
        if verb == _HINT_RELAY:
            next_relay_id = hint[1]
            self._network.hop(self, next_relay_id, inner, time)
        elif verb == _HINT_DELIVER:
            dest_node_id = hint[1]
            self._network.final_delivery(self, dest_node_id, inner, time)
        elif verb == _HINT_RENDEZVOUS:
            address = hint[1]
            self._network.rendezvous_delivery(self, address, inner, time)
        else:
            raise MixnetError(f"unknown routing hint verb {verb!r}")


class MixNetwork:
    """The relay pool, circuit builder, and hop scheduler.

    Circuits are cached per (sender, destination) — the Tor-style
    semantics where a circuit is reused for a flow rather than rebuilt
    per cell — which removes relay selection and onion hop-list
    construction from the per-message path.  Entries are evicted when
    their rendezvous address closes (pseudonym rotation) and the whole
    cache is dropped via :meth:`invalidate_circuits` (relay-pool
    rotation) or when it exceeds ``circuit_cache_limit``.
    """

    __slots__ = (
        "_sim",
        "_directory",
        "_rng",
        "_circuit_length",
        "_hop_latency",
        "_relay_availability",
        "dropped_relay_down",
        "traffic",
        "relays",
        "_rendezvous",
        "delivered_count",
        "dropped_offline",
        "dropped_closed",
        "_circuit_cache_limit",
        "_circuits",
        "_address_keys",
        "_inline_hops",
        "_always_up",
        "_node_names",
        "circuit_cache_hits",
        "circuit_cache_misses",
        "circuit_cache_evictions",
    )

    def __init__(
        self,
        sim: Simulator,
        directory: NodeDirectory,
        rng: np.random.Generator,
        num_relays: int = 20,
        circuit_length: int = 3,
        hop_latency: float = 0.01,
        relay_availability: float = 1.0,
        traffic: Optional[TrafficLog] = None,
        circuit_cache_limit: int = 4096,
        replay_cache_limit: Optional[int] = 65536,
    ) -> None:
        """``relay_availability`` models third-party infrastructure that
        is highly but not perfectly available (the paper assumes "high
        availability" for deployed anonymity services): each hop is
        dropped with probability ``1 - relay_availability``."""
        if num_relays < circuit_length:
            raise MixnetError(
                f"need at least {circuit_length} relays, got {num_relays}"
            )
        if circuit_length < 1:
            raise MixnetError("circuit_length must be at least 1")
        if not 0.0 < relay_availability <= 1.0:
            raise MixnetError("relay_availability must be in (0, 1]")
        self._sim = sim
        self._directory = directory
        self._rng = rng
        self._circuit_length = circuit_length
        self._hop_latency = hop_latency
        self._relay_availability = relay_availability
        self.dropped_relay_down = 0
        self.traffic = traffic if traffic is not None else TrafficLog(enabled=False)

        keys = KeyRegistry()
        self.relays: List[Relay] = [
            Relay(relay_id, keys.issue(), self, replay_cache_limit=replay_cache_limit)
            for relay_id in range(num_relays)
        ]
        # Rendezvous table: pseudonym address -> (rendezvous relay id,
        # owner's return circuit as relay ids, owner node id).  The owner
        # id is known only to this table — the simulation stand-in for
        # the owner-built return circuit's endpoint.
        self._rendezvous: Dict[Address, Tuple[int, Tuple[int, ...], int]] = {}
        self.delivered_count = 0
        self.dropped_offline = 0
        self.dropped_closed = 0
        # Circuit cache: key -> (first relay, prebuilt seal_layers hops,
        # per-hop header digests).  Keys are (0, sender, dest_node) or
        # (1, sender, address).
        self._circuit_cache_limit = circuit_cache_limit
        self._circuits: Dict[
            Tuple[Any, ...],
            Tuple[Relay, Tuple[Tuple[int, Any], ...], Tuple[int, ...]],
        ] = {}
        self._address_keys: Dict[Address, List[Tuple[Any, ...]]] = {}
        # Zero-latency hops need no event scheduling: the whole relay
        # chain runs inline in the injecting event.
        self._inline_hops = hop_latency == 0.0
        self._always_up = relay_availability >= 1.0
        self._node_names: Dict[int, str] = {}
        self.circuit_cache_hits = 0
        self.circuit_cache_misses = 0
        self.circuit_cache_evictions = 0

    @property
    def circuit_length(self) -> int:
        """Relays per circuit."""
        return self._circuit_length

    def build_circuit(self, length: Optional[int] = None) -> List[Relay]:
        """Pick ``length`` distinct relays uniformly at random."""
        if length is None:
            length = self._circuit_length
        indices = self._rng.choice(len(self.relays), size=length, replace=False)
        return [self.relays[int(index)] for index in indices]

    # -- onion construction ------------------------------------------------

    @staticmethod
    def _hops(
        circuit: List[Relay], last_hint: Tuple[str, Any]
    ) -> Tuple[Tuple[int, Any], ...]:
        """The ``seal_layers`` hop list for a circuit: relay-to-relay
        hints, then ``last_hint`` at the exit."""
        hops = []
        for position, relay in enumerate(circuit):
            if position + 1 < len(circuit):
                hint: Tuple[str, Any] = (_HINT_RELAY, circuit[position + 1].relay_id)
            else:
                hint = last_hint
            hops.append((relay.key_pair.public, hint))
        return tuple(hops)

    def wrap_for_node(self, circuit: List[Relay], dest_node_id: int, payload: Any) -> Sealed:
        """Onion whose last layer delivers to a known node id."""
        return seal_layers(self._hops(circuit, (_HINT_DELIVER, dest_node_id)), payload)

    def wrap_for_rendezvous(
        self, circuit: List[Relay], address: Address, payload: Any
    ) -> Sealed:
        """Onion whose last layer hands the payload to a rendezvous relay."""
        return seal_layers(self._hops(circuit, (_HINT_RENDEZVOUS, address)), payload)

    # -- circuit cache -----------------------------------------------------

    def circuit_for_node(
        self, sender_id: int, dest_node_id: int
    ) -> Tuple[Relay, Tuple[Tuple[int, Any], ...], Tuple[int, ...]]:
        """The (first relay, prebuilt hops, header digests) for a
        sender->node flow.

        Cached per (sender, destination), including the per-hop header
        digests that let ``seal_layers`` stamp replay digests at seal
        time.
        """
        key = (0, sender_id, dest_node_id)
        entry = self._circuits.get(key)
        if entry is not None:
            self.circuit_cache_hits += 1
            return entry
        self.circuit_cache_misses += 1
        circuit = self.build_circuit()
        hops = self._hops(circuit, (_HINT_DELIVER, dest_node_id))
        entry = (circuit[0], hops, self._header_digests(hops))
        self._store_circuit(key, entry)
        return entry

    def circuit_for_rendezvous(
        self, sender_id: int, address: Address
    ) -> Tuple[Relay, Tuple[Tuple[int, Any], ...], Tuple[int, ...]]:
        """The (first relay, prebuilt hops, header digests) for a
        sender->pseudonym flow.

        The circuit's last hop is mandated: it must be the address's
        rendezvous relay.  Cached per (sender, address); closing the
        address evicts every circuit that targets it.
        """
        key = (1, sender_id, address)
        entry = self._circuits.get(key)
        if entry is not None:
            self.circuit_cache_hits += 1
            return entry
        self.circuit_cache_misses += 1
        first_relay, hops = self._build_rendezvous_circuit(address)
        entry = (first_relay, hops, self._header_digests(hops))
        self._store_circuit(key, entry)
        self._address_keys.setdefault(address, []).append(key)
        return entry

    @staticmethod
    def _header_digests(hops: Tuple[Tuple[int, Any], ...]) -> Tuple[int, ...]:
        """Per-hop static header digests, computed once per circuit."""
        return tuple(header_digest(public_key, hint) for public_key, hint in hops)

    def _build_rendezvous_circuit(
        self, address: Address
    ) -> Tuple[Relay, Tuple[Tuple[int, Any], ...]]:
        """Random approach relays plus the mandated rendezvous last hop."""
        rendezvous_relay_id = self.rendezvous_relay_of(address)
        approach = [
            relay
            for relay in self.build_circuit(self._circuit_length - 1)
            if relay.relay_id != rendezvous_relay_id
        ]
        circuit = approach + [self.relays[rendezvous_relay_id]]
        return circuit[0], self._hops(circuit, (_HINT_RENDEZVOUS, address))

    def _store_circuit(
        self,
        key: Tuple[Any, ...],
        entry: Tuple[Relay, Tuple[Tuple[int, Any], ...], Tuple[int, ...]],
    ) -> None:
        if len(self._circuits) >= self._circuit_cache_limit:
            self.invalidate_circuits()
        self._circuits[key] = entry

    def invalidate_circuits(self) -> None:
        """Drop every cached circuit (e.g. on relay-pool rotation)."""
        self.circuit_cache_evictions += len(self._circuits)
        self._circuits.clear()
        self._address_keys.clear()

    def circuit_cache_size(self) -> int:
        """Number of cached circuits."""
        return len(self._circuits)

    # -- scheduling --------------------------------------------------------

    def _latency(self) -> float:
        if self._hop_latency == 0.0:
            return 0.0
        return float(self._rng.uniform(0.5 * self._hop_latency, 1.5 * self._hop_latency))

    def _relay_up(self) -> bool:
        if self._relay_availability >= 1.0:
            return True
        if self._rng.random() < self._relay_availability:
            return True
        self.dropped_relay_down += 1
        return False

    def inject(self, sender_name: str, first_relay: Relay, onion: Sealed) -> None:
        """Send an onion from an edge node into the mix."""
        now = self._sim.now
        self.traffic.record(now, sender_name, first_relay.name)
        if not (self._always_up or self._relay_up()):
            return
        if self._inline_hops:
            first_relay.process(onion, sender_name, now)
            return
        self._sim.post_after(
            self._latency(), first_relay.process, onion, sender_name, now
        )

    def hop(self, from_relay: Relay, next_relay_id: int, inner: Any, time: float) -> None:
        """Forward between relays."""
        try:
            next_relay = self.relays[next_relay_id]
        except IndexError:
            raise MixnetError(f"unknown relay id {next_relay_id}") from None
        now = self._sim.now
        self.traffic.record(now, from_relay.name, next_relay.name)
        if not (self._always_up or self._relay_up()):
            return
        if self._inline_hops:
            next_relay.process(inner, from_relay.name, now)
            return
        self._sim.post_after(
            self._latency(), next_relay.process, inner, from_relay.name, now
        )

    def _node_name(self, node_id: int) -> str:
        """The interned ``node:<id>`` endpoint string for traffic records."""
        name = self._node_names.get(node_id)
        if name is None:
            name = f"node:{node_id}"
            self._node_names[node_id] = name
        return name

    def final_delivery(
        self, from_relay: Relay, dest_node_id: int, payload: Any, time: float
    ) -> None:
        """Last hop of an anonymity-service circuit: relay -> node."""
        self.traffic.record(self._sim.now, from_relay.name, self._node_name(dest_node_id))
        if self._inline_hops:
            self._deliver_to_node(dest_node_id, payload)
            return
        self._sim.post_after(self._latency(), self._deliver_to_node, dest_node_id, payload)

    def rendezvous_delivery(
        self, from_relay: Relay, address: Address, payload: Any, time: float
    ) -> None:
        """A rendezvous relay received a message for a pseudonym endpoint.

        The payload continues along the owner's return circuit (modeled
        as the recorded relay chain) and finally reaches the owner.
        """
        entry = self._rendezvous.get(address)
        if entry is None:
            self.dropped_closed += 1
            return
        rendezvous_relay_id, return_circuit, owner_id = entry
        if from_relay.relay_id != rendezvous_relay_id:
            # Message reached a relay that is not this pseudonym's
            # rendezvous point; a real network would fail to decrypt.
            self.dropped_closed += 1
            return
        previous_name = from_relay.name
        now = self._sim.now
        if self._inline_hops:
            # Zero-latency return circuit: no draws, no scheduling.
            traffic_record = self.traffic.record
            relays = self.relays
            for relay_id in return_circuit:
                relay_name = relays[relay_id].name
                traffic_record(now, previous_name, relay_name)
                previous_name = relay_name
            traffic_record(now, previous_name, self._node_name(owner_id))
            self._deliver_to_node(owner_id, payload)
            return
        delay = 0.0
        for relay_id in return_circuit:
            delay += self._latency()
            relay_name = self.relays[relay_id].name
            self.traffic.record(now + delay, previous_name, relay_name)
            previous_name = relay_name
        delay += self._latency()
        self.traffic.record(now + delay, previous_name, self._node_name(owner_id))
        self._sim.post_after(delay, self._deliver_to_node, owner_id, payload)

    def _deliver_to_node(self, node_id: int, payload: Any) -> None:
        if self._directory.deliver(node_id, payload):
            self.delivered_count += 1
        else:
            self.dropped_offline += 1

    # -- rendezvous registry ------------------------------------------------

    def open_rendezvous(self, owner_id: int) -> Address:
        """Owner builds a return circuit; its last relay becomes the address."""
        circuit = self.build_circuit()
        rendezvous_relay = circuit[-1]
        return_circuit = tuple(relay.relay_id for relay in reversed(circuit[:-1]))
        address = Address(token=_next_rendezvous_token(), kind="rendezvous")
        self._rendezvous[address] = (rendezvous_relay.relay_id, return_circuit, owner_id)
        return address

    def close_rendezvous(self, address: Address) -> None:
        """Tear down the rendezvous entry for ``address``.

        Also evicts every cached sender circuit targeting the address,
        so pseudonym rotation invalidates stale circuits.
        """
        self._rendezvous.pop(address, None)
        keys = self._address_keys.pop(address, None)
        if keys:
            for key in keys:
                if self._circuits.pop(key, None) is not None:
                    self.circuit_cache_evictions += 1

    def rendezvous_relay_of(self, address: Address) -> int:
        """Rendezvous relay id for an address (raises if closed)."""
        entry = self._rendezvous.get(address)
        if entry is None:
            raise PseudonymError(f"unknown or closed rendezvous {address}")
        return entry[0]

    def is_rendezvous_active(self, address: Address) -> bool:
        """Whether the rendezvous entry still exists."""
        return address in self._rendezvous

    # -- aggregate stats ---------------------------------------------------

    def total_replays_dropped(self) -> int:
        """Replayed messages dropped, summed over relays."""
        return sum(relay.replays_dropped for relay in self.relays)

    def total_replay_cache_entries(self) -> int:
        """Currently cached replay digests, summed over relays."""
        return sum(relay.replay_cache_size() for relay in self.relays)

    def total_replay_flushes(self) -> int:
        """Epoch flushes of replay caches, summed over relays."""
        return sum(relay.replay_flushes for relay in self.relays)


_rendezvous_counter = itertools.count(1)


def _next_rendezvous_token() -> int:
    return next(_rendezvous_counter)


class MixnetAnonymityService(AnonymityService):
    """Anonymity service over the simulated mix network."""

    __slots__ = ("_network", "sent_count")

    def __init__(self, network: MixNetwork) -> None:
        self._network = network
        self.sent_count = 0

    def send(self, sender_id: int, dest_id: int, payload: Any) -> None:
        self.sent_count += 1
        network = self._network
        first_relay, hops, digests = network.circuit_for_node(sender_id, dest_id)
        onion = seal_layers(hops, payload, header_digests=digests)
        network.inject(network._node_name(sender_id), first_relay, onion)


class RendezvousPseudonymService(PseudonymServiceBase):
    """Hidden-service-style pseudonym endpoints over the mix network."""

    __slots__ = ("_network", "sent_count")

    def __init__(self, network: MixNetwork) -> None:
        self._network = network
        self.sent_count = 0

    def create_endpoint(self, owner_id: int) -> Address:
        return self._network.open_rendezvous(owner_id)

    def close_endpoint(self, address: Address) -> None:
        self._network.close_rendezvous(address)

    def is_active(self, address: Address) -> bool:
        return self._network.is_rendezvous_active(address)

    def send(self, sender_id: int, address: Address, payload: Any) -> None:
        self.sent_count += 1
        network = self._network
        if address not in network._rendezvous:
            # Sender cannot even route: treat as silent drop, matching
            # expired-pseudonym semantics.
            return
        first_relay, hops, digests = network.circuit_for_rendezvous(
            sender_id, address
        )
        onion = seal_layers(hops, payload, header_digests=digests)
        network.inject(network._node_name(sender_id), first_relay, onion)


def make_mixnet_link_layer(
    sim: Simulator,
    rng: np.random.Generator,
    num_relays: int = 20,
    circuit_length: int = 3,
    hop_latency: float = 0.01,
    traffic: Optional[TrafficLog] = None,
    circuit_cache_limit: int = 4096,
    replay_cache_limit: Optional[int] = 65536,
):
    """Build a :class:`~repro.privlink.link.LinkLayer` backed by a mixnet.

    Flows use a per-(sender, destination) circuit cache with seal-time
    replay-digest stamping and compact epoch-bounded replay digests;
    hops are scheduled per relay unless ``hop_latency`` is zero, in
    which case the whole chain runs inline in the injecting event.
    """
    from .link import LinkLayer  # local import to avoid cycle at module load

    directory = NodeDirectory()
    network = MixNetwork(
        sim,
        directory,
        rng,
        num_relays=num_relays,
        circuit_length=circuit_length,
        hop_latency=hop_latency,
        traffic=traffic,
        circuit_cache_limit=circuit_cache_limit,
        replay_cache_limit=replay_cache_limit,
    )
    layer = LinkLayer(
        directory,
        MixnetAnonymityService(network),
        RendezvousPseudonymService(network),
    )
    layer.network = network  # expose for attack analyses and tests
    return layer
