"""One participant's network machinery: codec + transport + liveness.

:class:`NetEndpoint` is everything a single overlay node needs to live
on a datagram network:

* **bootstrap** — hello the configured seed addresses with exponential
  backoff until one acks (a seed's ack carries its address book, which
  we copy and then greet, so everyone listed learns our address too);
* **liveness** — an address is not a watch: the address book says where
  a node *could* be reached, the :class:`~repro.net.peers.PeerTable`
  holds the peers we exchange trusted-link frames with, and only those
  get periodic heartbeats and the two-level suspect/dead detection;
* **pseudonym service** — mint 63-bit endpoint tokens locally, register
  them with the seeds, resolve unknown tokens with lookup queries
  (queueing outbound messages until the route answer lands), and learn
  routes passively from the hints shuffle entries carry;
* **protocol bridging** — translate :class:`~repro.core.shuffle
  .ShuffleRequest` / :class:`ShuffleResponse` to and from their wire
  images so :class:`~repro.core.node.OverlayNode` runs unmodified.

The endpoint never touches a socket API directly — everything goes
through a :class:`~repro.net.transport.Transport` — and never reads a
wall clock — everything goes through a :class:`~repro.sim.clock.Clock`
— so the same code is exercised deterministically on the loopback
fabric and for real over UDP.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.pseudonym import Pseudonym
from ..core.shuffle import ShuffleRequest, ShuffleResponse
from ..errors import NetError
from ..privlink import Address
from ..rng import random_bits
from ..sim import PeriodicProcess
from ..sim.clock import Clock
from .codec import (
    AppPayload,
    CodecError,
    Goodbye,
    Heartbeat,
    Hello,
    HelloAck,
    Lookup,
    LookupReply,
    PeerInfo,
    Register,
    ShuffleOffer,
    ShuffleReply,
    WireEntry,
    _MAX_PEERS,
    decode_frame,
    encode_frame,
)
from .peers import PeerTable
from .transport import Endpoint, Transport

__all__ = ["NetEndpoint", "ADDRESS_KIND"]

#: ``Address.kind`` for endpoints minted by the live network layer.
ADDRESS_KIND = "net"

#: Outbound messages queued per unresolved token before we start
#: dropping (bounds memory under a hostile or dead directory).
_MAX_PENDING = 16

#: How long (clock units) a route learned from an offer's reply hint or
#: a lookup answer is kept.  Forgetting one early costs one ``Lookup``.
_ROUTE_HORIZON = 30.0

#: Frame types that carry no protocol payload (``liveness_out``).
_LIVENESS = frozenset((Hello, HelloAck, Heartbeat, Goodbye))

#: The route hint of a token nobody here can route: "no hint".
_NO_ROUTE = ("", 0)

Inbox = Callable[[Any], None]
OnlineCheck = Callable[[], bool]


class NetEndpoint:
    """A node's datagram presence (see module docstring).

    Parameters
    ----------
    node_id, clock, transport, rng:
        Identity, time source, datagram transport (already bound), and
        a seeded generator (endpoint tokens, timer jitter).
    bootstrap:
        Seed ``(host, port)`` addresses.  Empty means *we* are a seed:
        bootstrapping is trivially complete, lookups are answered from
        the local directory, and a ``Hello`` is answered with the
        address book (everyone else acks without peers).
    heartbeat_interval, suspect_after, dead_after:
        Liveness cadence and the two-level timeouts, in clock units.
    backoff_base, backoff_factor, backoff_max, bootstrap_attempts:
        Exponential-backoff schedule for bootstrap retries.
    """

    def __init__(
        self,
        node_id: int,
        clock: Clock,
        transport: Transport,
        rng: np.random.Generator,
        bootstrap: Tuple[Endpoint, ...] = (),
        heartbeat_interval: float = 1.0,
        suspect_after: float = 3.0,
        dead_after: float = 9.0,
        backoff_base: float = 0.25,
        backoff_factor: float = 2.0,
        backoff_max: float = 4.0,
        bootstrap_attempts: int = 10,
    ) -> None:
        if bootstrap_attempts < 1:
            raise NetError("bootstrap_attempts must be at least 1")
        if backoff_base <= 0 or backoff_factor < 1 or backoff_max < backoff_base:
            raise NetError("invalid backoff schedule")
        self.node_id = node_id
        self._clock = clock
        self._transport = transport
        self._rng = rng
        self._bootstrap = tuple(bootstrap)
        self._backoff_base = backoff_base
        self._backoff_factor = backoff_factor
        self._backoff_max = backoff_max
        self._bootstrap_attempts = bootstrap_attempts

        #: Peers we watch: those a trusted-link frame has crossed to or
        #: from.  Heartbeats, probes and goodbyes go to these only.
        self.table = PeerTable(suspect_after=suspect_after, dead_after=dead_after)
        #: node id -> address of everyone introduced by Hello / HelloAck.
        self._book: Dict[int, Endpoint] = {}
        self._inbox: Optional[Inbox] = None
        self._is_online: OnlineCheck = lambda: True
        #: Tokens this endpoint owns (its own pseudonym endpoints).
        self._owned: Set[int] = set()
        #: Learned token -> (transport address, expiry) routes.
        self._routes: Dict[int, Tuple[Endpoint, float]] = {}
        #: Directory served to others (seeds accumulate registrations).
        self._directory: Dict[int, Endpoint] = {}
        #: Outbound payloads parked until a lookup resolves their token.
        self._pending: Dict[int, List[Any]] = {}
        self._greeted: Set[int] = set()
        self._hb_seq = 0
        #: True once a seed acked our hello (seeds start bootstrapped).
        self.bootstrapped = not self._bootstrap
        self._started = False
        self._closed = False
        self.log: List[str] = []
        self.counters: Dict[str, int] = {
            "codec_rejects": 0,
            "unknown_peer_drops": 0,
            "unknown_endpoint_drops": 0,
            "offline_drops": 0,
            "pending_overflow_drops": 0,
            "bootstrap_attempts": 0,
            "bootstrap_failures": 0,
            "probes_sent": 0,
            "peers_declared_dead": 0,
            "shuffle_offers_in": 0,
            "shuffle_replies_in": 0,
            "frames_out": 0,
            "liveness_out": 0,
        }

        self._heartbeat = PeriodicProcess(
            clock, period=heartbeat_interval, callback=self._heartbeat_tick,
            rng=rng, jitter=0.1,
        )
        self._liveness = PeriodicProcess(
            clock, period=heartbeat_interval, callback=self._liveness_tick,
            rng=rng, jitter=0.1,
        )
        transport.set_receiver(self._on_frame)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def local_address(self) -> Endpoint:
        """Where peers reach this endpoint."""
        return self._transport.local_address

    def attach(self, inbox: Inbox, is_online: OnlineCheck) -> None:
        """Install the overlay node's message sink and liveness predicate."""
        self._inbox = inbox
        self._is_online = is_online

    def start(self) -> None:
        """Begin heartbeating and (when not a seed) bootstrapping."""
        if self._started:
            raise NetError("endpoint already started")
        self._started = True
        self._heartbeat.start()
        self._liveness.start()
        if not self.bootstrapped:
            self._bootstrap_tick(0)

    def shutdown(self) -> None:
        """Drain politely: goodbye every peer, then close the transport."""
        if self._closed:
            return
        self._closed = True
        self._heartbeat.stop()
        self._liveness.stop()
        self._send_to_table(Goodbye(node_id=self.node_id))
        self._log("shutdown: goodbye sent to "
                  f"{len(self.table)} peers")
        self._transport.close()

    def _log(self, message: str) -> None:
        self.log.append(f"[t={self._clock.now:.3f}] n{self.node_id}: {message}")

    def _send(self, address: Endpoint, message: Any) -> None:
        """Frame and transmit one message; the only way out of here."""
        self.counters["frames_out"] += 1
        if type(message) in _LIVENESS:
            self.counters["liveness_out"] += 1
        self._transport.send(address, encode_frame(message))

    def _send_to_table(self, message: Any) -> None:
        for peer_id in self.table.peer_ids():
            self._send(self.table.address_of(peer_id), message)

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------

    def _bootstrap_tick(self, attempt: int) -> None:
        if self.bootstrapped or self._closed:
            return
        if attempt >= self._bootstrap_attempts:
            self.counters["bootstrap_failures"] += 1
            self._log(
                f"bootstrap failed after {attempt} attempts; giving up"
            )
            return
        self.counters["bootstrap_attempts"] += 1
        host, port = self.local_address
        for seed in self._bootstrap:
            self._send(seed, Hello(node_id=self.node_id, host=host, port=port))
        delay = min(
            self._backoff_base * (self._backoff_factor ** attempt),
            self._backoff_max,
        )
        self._log(
            f"bootstrap attempt {attempt + 1}/{self._bootstrap_attempts}, "
            f"retry in {delay:.2f}"
        )
        self._clock.schedule_after(delay, self._bootstrap_tick, attempt + 1)

    def _greet(self, node_id: int, address: Endpoint) -> None:
        """Hello a newly learned peer once, so it learns us symmetrically."""
        if node_id == self.node_id or node_id in self._greeted:
            return
        self._greeted.add(node_id)
        self._book[node_id] = address
        host, port = self.local_address
        self._send(address, Hello(node_id=self.node_id, host=host, port=port))

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------

    def _heartbeat_tick(self) -> None:
        if self._closed:
            return
        self._hb_seq += 1
        self._send_to_table(Heartbeat(node_id=self.node_id, seq=self._hb_seq))

    def _liveness_tick(self) -> None:
        if self._closed:
            return
        now = self._clock.now
        newly_suspect, dead = self.table.check(now)
        for record in newly_suspect:
            self.counters["probes_sent"] += 1
            self._log(f"peer n{record.node_id} silent; probing")
            self._send(
                record.address,
                Heartbeat(
                    node_id=self.node_id, seq=self._hb_seq, reply_wanted=True
                ),
            )
        for record in dead:
            # The book keeps the address: the next protocol send to this
            # peer starts a fresh watch (a healed partition re-links).
            self.counters["peers_declared_dead"] += 1
            self._log(f"peer n{record.node_id} declared dead")
            self._drop_routes_via(record.address)
        expired = [
            token for token, (_, expires_at) in self._routes.items()
            if expires_at <= now
        ]
        for token in expired:
            del self._routes[token]

    def _drop_routes_via(self, address: Endpoint) -> None:
        stale = [
            token for token, (route, _) in self._routes.items()
            if route == address
        ]
        for token in stale:
            del self._routes[token]

    # ------------------------------------------------------------------
    # link-layer operations (called via the adapter facades)
    # ------------------------------------------------------------------

    def send_to_node(self, dest_id: int, payload: Any) -> None:
        """Trusted-link send; the first one to a peer starts watching it."""
        address = self.table.address_of(dest_id)
        if address is None:
            address = self._book.get(dest_id)
            if address is None:
                self.counters["unknown_peer_drops"] += 1
                return
            self.table.note_heard(dest_id, address, self._clock.now)
        self._send(address, self._to_wire(payload))

    def send_to_endpoint(self, address: Address, payload: Any) -> None:
        """Pseudonym-link send: route by token, or look it up and queue."""
        token = address.token
        route = self._route_for(token)
        if route is not None:
            self._send(route, self._to_wire(payload))
            return
        directory = self._directory_peer()
        if directory is None:
            self.counters["unknown_endpoint_drops"] += 1
            return
        queue = self._pending.setdefault(token, [])
        if len(queue) >= _MAX_PENDING:
            self.counters["pending_overflow_drops"] += 1
            return
        queue.append(payload)
        self._send(directory, Lookup(token=token))

    def create_endpoint(self) -> Address:
        """Mint a fresh pseudonym endpoint and register it with the seeds."""
        token = random_bits(self._rng, 63)
        while token == 0 or token in self._owned:
            token = random_bits(self._rng, 63)
        self._owned.add(token)
        host, port = self.local_address
        self._directory[token] = (host, port)
        self._register(token, active=True)
        return Address(token=token, kind=ADDRESS_KIND)

    def close_endpoint(self, address: Address) -> None:
        """Retire an owned endpoint; unregister it from the seeds."""
        token = address.token
        self._owned.discard(token)
        self._directory.pop(token, None)
        self._routes.pop(token, None)
        self._register(token, active=False)

    def _register(self, token: int, active: bool) -> None:
        host, port = self.local_address
        for seed in self._bootstrap:
            self._send(
                seed,
                Register(
                    node_id=self.node_id, token=token, host=host, port=port,
                    active=active,
                ),
            )

    def _route_for(self, token: int) -> Optional[Endpoint]:
        if token in self._owned:
            return self.local_address
        route = self._routes.get(token)
        if route is not None:
            return route[0]
        return self._directory.get(token)

    def _directory_peer(self) -> Optional[Endpoint]:
        """Whom to ask about unknown tokens (the first seed)."""
        return self._bootstrap[0] if self._bootstrap else None

    # ------------------------------------------------------------------
    # wire conversion
    # ------------------------------------------------------------------

    def _route_hint(self, token: int) -> Tuple[str, int]:
        route = self._route_for(token)
        return route if route is not None else _NO_ROUTE

    def _entries_to_wire(
        self, entries: Tuple[Pseudonym, ...], now: float
    ) -> Tuple[WireEntry, ...]:
        # One pass; each route hint resolved as ``_route_for`` does.
        owned = self._owned
        routes = self._routes
        directory = self._directory
        local = self.local_address
        wires = []
        for pseudonym in entries:
            token = pseudonym.address.token
            if token in owned:
                host, port = local
            else:
                route = routes.get(token)
                host, port = (
                    route[0] if route is not None
                    else directory.get(token, _NO_ROUTE)
                )
            wires.append(
                WireEntry(
                    pseudonym.value, token, pseudonym.expires_at - now, host, port
                )
            )
        return tuple(wires)

    def _entries_from_wire(
        self, wires: Tuple[WireEntry, ...], now: float
    ) -> Tuple[Pseudonym, ...]:
        owned = self._owned
        routes = self._routes
        entries = []
        for value, token, ttl, host, port in wires:
            expires_at = now + ttl
            if host and token not in owned:
                # The hint is useful exactly as long as the pseudonym.
                routes[token] = ((host, port), expires_at)
            entries.append(
                Pseudonym(value, Address(token, ADDRESS_KIND), expires_at)
            )
        return tuple(entries)

    def _to_wire(self, payload: Any) -> Any:
        now = self._clock.now
        if isinstance(payload, ShuffleRequest):
            entries = self._entries_to_wire(payload.entries, now)
            if payload.reply_node is not None:
                offer = ShuffleOffer(entries=entries, reply_node=payload.reply_node)
            else:
                token = payload.reply_address.token
                host, port = self._route_hint(token)
                offer = ShuffleOffer(
                    entries=entries,
                    reply_token=token,
                    reply_host=host,
                    reply_port=port,
                )
            return offer
        if isinstance(payload, ShuffleResponse):
            return ShuffleReply(
                entries=self._entries_to_wire(payload.entries, now)
            )
        try:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError) as error:
            raise NetError(
                f"application payload is not JSON-encodable: {error}"
            ) from error
        return AppPayload(kind="json", body=body)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def _deliver(self, payload: Any) -> None:
        if self._inbox is None or not self._is_online():
            self.counters["offline_drops"] += 1
            return
        self._inbox(payload)

    def _on_frame(self, data: bytes, source: Endpoint) -> None:
        if self._closed:
            return
        message = decode_frame(data)
        self._HANDLERS[type(message)](self, message, source)

    def _on_reject(self, message: CodecError, source: Endpoint) -> None:
        self.counters["codec_rejects"] += 1
        self._log(f"rejected frame from {source}: {message.code}")

    def _on_hello(self, message: Hello, source: Endpoint) -> None:
        address = (message.host, message.port)
        self._book[message.node_id] = address
        self._greeted.add(message.node_id)
        # Only a seed introduces: it is the rendezvous everyone
        # already shows an address to.  A long book goes out as
        # several acks, each within the codec's peer-list limit.
        peers: Tuple[PeerInfo, ...] = ()
        if not self._bootstrap:
            peers = tuple(
                PeerInfo(node_id=node_id, host=host, port=port)
                for node_id, (host, port) in sorted(self._book.items())
            )
        for start in range(0, max(len(peers), 1), _MAX_PEERS):
            self._send(
                address,
                HelloAck(
                    node_id=self.node_id,
                    peers=peers[start:start + _MAX_PEERS],
                ),
            )

    def _on_hello_ack(self, message: HelloAck, source: Endpoint) -> None:
        if not self.bootstrapped:
            self.bootstrapped = True
            self._log(f"bootstrapped via n{message.node_id}")
        self._book[message.node_id] = source
        for peer in message.peers:
            self._greet(peer.node_id, (peer.host, peer.port))

    def _on_heartbeat(self, message: Heartbeat, source: Endpoint) -> None:
        self.table.note_heard(message.node_id, source, self._clock.now)
        if message.reply_wanted:
            self._send(source, Heartbeat(node_id=self.node_id, seq=self._hb_seq))

    def _on_goodbye(self, message: Goodbye, source: Endpoint) -> None:
        self._book.pop(message.node_id, None)
        record = self.table.remove(message.node_id)
        if record is not None:
            self._drop_routes_via(record.address)
            self._log(f"peer n{message.node_id} said goodbye")

    def _on_register(self, message: Register, source: Endpoint) -> None:
        if message.active:
            self._directory[message.token] = (message.host, message.port)
        else:
            self._directory.pop(message.token, None)
            self._routes.pop(message.token, None)

    def _on_lookup(self, message: Lookup, source: Endpoint) -> None:
        route = self._route_for(message.token)
        reply = LookupReply(
            token=message.token,
            found=route is not None,
            host=route[0] if route is not None else "",
            port=route[1] if route is not None else 0,
        )
        self._send(source, reply)

    def _on_lookup_reply(self, message: LookupReply, source: Endpoint) -> None:
        queued = self._pending.pop(message.token, [])
        if not message.found:
            self.counters["unknown_endpoint_drops"] += len(queued)
            return
        route = (message.host, message.port)
        self._routes[message.token] = (route, self._clock.now + _ROUTE_HORIZON)
        for payload in queued:
            self._send(route, self._to_wire(payload))

    def _on_offer(self, message: ShuffleOffer, source: Endpoint) -> None:
        self.counters["shuffle_offers_in"] += 1
        now = self._clock.now
        entries = self._entries_from_wire(message.entries, now)
        if message.reply_node is not None:
            # An identified offer is a trusted-link frame: it proves
            # the peer alive as well as any heartbeat.
            self.table.note_heard(message.reply_node, source, now)
            request = ShuffleRequest(entries=entries, reply_node=message.reply_node)
        else:
            reply_route = (
                (message.reply_host, message.reply_port)
                if message.reply_host
                else source
            )
            if message.reply_token not in self._owned:
                self._routes[message.reply_token] = (
                    reply_route, now + _ROUTE_HORIZON
                )
            request = ShuffleRequest(
                entries=entries,
                reply_address=Address(
                    token=message.reply_token, kind=ADDRESS_KIND
                ),
            )
        self._deliver(request)

    def _on_reply(self, message: ShuffleReply, source: Endpoint) -> None:
        self.counters["shuffle_replies_in"] += 1
        self._deliver(
            ShuffleResponse(
                entries=self._entries_from_wire(message.entries, self._clock.now)
            )
        )

    def _on_app_payload(self, message: AppPayload, source: Endpoint) -> None:
        try:
            payload = json.loads(message.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self.counters["codec_rejects"] += 1
            self._log(f"rejected app payload from {source}: bad JSON")
            return
        self._deliver(payload)

    #: What ``_on_frame`` does with each decoded type (one dict lookup
    #: per frame instead of a chain of ``isinstance`` tests).
    _HANDLERS: Dict[type, Callable[["NetEndpoint", Any, Endpoint], None]] = {
        CodecError: _on_reject,
        Hello: _on_hello,
        HelloAck: _on_hello_ack,
        Heartbeat: _on_heartbeat,
        Goodbye: _on_goodbye,
        Register: _on_register,
        Lookup: _on_lookup,
        LookupReply: _on_lookup_reply,
        ShuffleOffer: _on_offer,
        ShuffleReply: _on_reply,
        AppPayload: _on_app_payload,
    }
