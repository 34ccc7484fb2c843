"""Link-layer abstractions and the ideal services used by the evaluation.

Figure 2 of the paper splits the privacy-preserving link layer into an
*anonymity service* (send to a node whose real ID you know, without
observers linking the endpoints) and a *pseudonym service* (create
pseudonym endpoints; send to an endpoint without either side learning
the other's ID).  This module defines those two interfaces, the
:class:`Address` type for pseudonym endpoints, the simulation-side
:class:`NodeDirectory` plumbing, and ideal implementations matching the
evaluation's assumption of "ideal anonymity and pseudonym services
[...] reliable and [with] both low latency and high bandwidth"
(Section IV): messages arrive after a small latency iff the destination
is online at delivery time.

The :class:`LinkLayer` facade bundles one anonymity service and one
pseudonym service; the overlay layer only ever talks to the facade.
"""

from __future__ import annotations

import abc
import dataclasses
import itertools
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..errors import LinkLayerError, PseudonymError
from ..sim import Simulator
from .traffic import TrafficLog

__all__ = [
    "Address",
    "NodeDirectory",
    "AnonymityService",
    "PseudonymServiceBase",
    "LinkLayer",
    "IdealAnonymityService",
    "IdealPseudonymService",
    "make_ideal_link_layer",
]

Inbox = Callable[[Any], None]
OnlineCheck = Callable[[], bool]


@dataclasses.dataclass(frozen=True, order=True)
class Address:
    """An opaque pseudonym-service endpoint address.

    Knowing an :class:`Address` lets any node send to its owner without
    learning the owner's :class:`~repro.privlink.identity.NodeID`; this
    is the "anonymous address" role pseudonyms play in the paper.
    ``kind`` names the backend that issued it (useful in traces).
    """

    token: int
    kind: str = "ideal"

    def __str__(self) -> str:
        return f"{self.kind}:{self.token}"


class NodeDirectory:
    """Simulation plumbing: maps node ids to inboxes and liveness checks.

    This is *not* the centralized directory the paper rules out — no
    protocol entity reads it; it is how the simulated network hands a
    delivered message to the destination process, i.e. the simulation's
    stand-in for the IP layer.
    """

    __slots__ = ("_inboxes", "_online_checks")

    def __init__(self) -> None:
        self._inboxes: Dict[int, Inbox] = {}
        self._online_checks: Dict[int, OnlineCheck] = {}

    def register(self, node_id: int, inbox: Inbox, is_online: OnlineCheck) -> None:
        """Register a node's delivery endpoint."""
        self._inboxes[node_id] = inbox
        self._online_checks[node_id] = is_online

    def is_online(self, node_id: int) -> bool:
        """Whether the node reports itself online right now."""
        check = self._online_checks.get(node_id)
        return bool(check()) if check is not None else False

    def deliver(self, node_id: int, payload: Any) -> bool:
        """Hand ``payload`` to the node iff it is online.  Returns success."""
        if not self.is_online(node_id):
            return False
        inbox = self._inboxes.get(node_id)
        if inbox is None:
            return False
        inbox(payload)
        return True


class AnonymityService(abc.ABC):
    """Privacy-preserving unicast to a node whose real ID is known."""

    __slots__ = ()

    @abc.abstractmethod
    def send(self, sender_id: int, dest_id: int, payload: Any) -> None:
        """Send ``payload`` from ``sender_id`` to node ``dest_id``.

        Delivery is asynchronous and best-effort: the message is dropped
        silently if the destination is offline when it arrives, matching
        the paper's failure model for individual links.
        """


class PseudonymServiceBase(abc.ABC):
    """Creates pseudonym endpoints and routes messages to them."""

    __slots__ = ()

    @abc.abstractmethod
    def create_endpoint(self, owner_id: int) -> Address:
        """Create a fresh endpoint owned by ``owner_id``.

        The endpoint remains valid while the owner is offline (the
        paper's pseudonym-validity guarantee); expiry is handled a layer
        up, by the overlay's pseudonym lifetimes, which call
        :meth:`close_endpoint`.
        """

    @abc.abstractmethod
    def close_endpoint(self, address: Address) -> None:
        """Destroy an endpoint.  Later sends to it are dropped."""

    @abc.abstractmethod
    def send(self, sender_id: int, address: Address, payload: Any) -> None:
        """Send ``payload`` to the owner of ``address`` (best effort)."""

    @abc.abstractmethod
    def is_active(self, address: Address) -> bool:
        """Whether the endpoint still exists."""


class _LatencyModel:
    """Draws per-message one-way latencies: Uniform(0, max_latency].

    A ``fixed`` latency overrides the draw entirely and consumes no
    randomness: every message takes exactly that long.  With
    ``fixed=1.0`` each broadcast hop lands on the next integer sim
    time — the round discretization the dissemination-plane
    differential tests rely on when churn must interleave with an
    in-flight epidemic.
    """

    __slots__ = ("_max_latency", "_rng", "_fixed")

    def __init__(
        self,
        max_latency: float,
        rng: np.random.Generator,
        fixed: Optional[float] = None,
    ) -> None:
        if max_latency < 0:
            raise LinkLayerError("max_latency must be non-negative")
        if fixed is not None and fixed < 0:
            raise LinkLayerError("fixed latency must be non-negative")
        self._max_latency = max_latency
        self._rng = rng
        self._fixed = fixed

    def sample(self) -> float:
        if self._fixed is not None:
            return float(self._fixed)
        if self._max_latency == 0.0:
            return 0.0
        return float(self._rng.uniform(0.0, self._max_latency))


class _LossModel:
    """Independent per-message loss with probability ``loss_rate``.

    The evaluation assumes reliable links; a non-zero rate stresses the
    protocol's tolerance of real-network message loss (gossip is
    naturally redundant, so moderate loss should cost little — the
    ``bench_ablation_loss`` experiment quantifies it).
    """

    __slots__ = ("_loss_rate", "_rng", "dropped")

    def __init__(self, loss_rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise LinkLayerError("loss_rate must be in [0, 1)")
        self._loss_rate = loss_rate
        self._rng = rng
        self.dropped = 0

    def drop(self) -> bool:
        if self._loss_rate == 0.0:
            return False
        if self._rng.random() < self._loss_rate:
            self.dropped += 1
            return True
        return False


class IdealAnonymityService(AnonymityService):
    """The evaluation's ideal anonymity service.

    Reliable, low-latency delivery whenever the destination is online at
    the moment of arrival; the traffic log still records the (single)
    observable channel so attack analyses can run against ideal links
    too.
    """

    __slots__ = (
        "_sim",
        "_directory",
        "_latency",
        "loss",
        "_traffic",
        "sent_count",
        "delivered_count",
    )

    def __init__(
        self,
        sim: Simulator,
        directory: NodeDirectory,
        rng: np.random.Generator,
        max_latency: float = 0.05,
        loss_rate: float = 0.0,
        traffic: Optional[TrafficLog] = None,
        fixed_latency: Optional[float] = None,
    ) -> None:
        self._sim = sim
        self._directory = directory
        self._latency = _LatencyModel(max_latency, rng, fixed=fixed_latency)
        self.loss = _LossModel(loss_rate, rng)
        self._traffic = traffic if traffic is not None else TrafficLog(enabled=False)
        self.sent_count = 0
        self.delivered_count = 0

    def send(self, sender_id: int, dest_id: int, payload: Any) -> None:
        self.sent_count += 1
        if self._traffic.enabled:
            self._traffic.record(self._sim.now, f"node:{sender_id}", f"node:{dest_id}")
        if self.loss.drop():
            return
        self._sim.post_after(
            self._latency.sample(), self._deliver, dest_id, payload
        )

    def _deliver(self, dest_id: int, payload: Any) -> None:
        if self._directory.deliver(dest_id, payload):
            self.delivered_count += 1


class IdealPseudonymService(PseudonymServiceBase):
    """The evaluation's ideal pseudonym service.

    Endpoints are plain address tokens resolved internally to their
    owner.  The resolution table is invisible to protocol entities —
    it models the rendezvous machinery a real deployment gets from
    Tor hidden services or I2P eepsites.
    """

    __slots__ = (
        "_sim",
        "_directory",
        "_latency",
        "loss",
        "_traffic",
        "_owners",
        "_tokens",
        "sent_count",
        "delivered_count",
        "dropped_closed",
    )

    def __init__(
        self,
        sim: Simulator,
        directory: NodeDirectory,
        rng: np.random.Generator,
        max_latency: float = 0.05,
        loss_rate: float = 0.0,
        traffic: Optional[TrafficLog] = None,
        fixed_latency: Optional[float] = None,
    ) -> None:
        self._sim = sim
        self._directory = directory
        self._latency = _LatencyModel(max_latency, rng, fixed=fixed_latency)
        self.loss = _LossModel(loss_rate, rng)
        self._traffic = traffic if traffic is not None else TrafficLog(enabled=False)
        self._owners: Dict[Address, int] = {}
        self._tokens = itertools.count(1)
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_closed = 0

    def create_endpoint(self, owner_id: int) -> Address:
        address = Address(token=next(self._tokens), kind="ideal")
        self._owners[address] = owner_id
        return address

    def close_endpoint(self, address: Address) -> None:
        self._owners.pop(address, None)

    def is_active(self, address: Address) -> bool:
        return address in self._owners

    def owner_of(self, address: Address) -> int:
        """Internal resolution — exposed for tests and attack oracles."""
        try:
            return self._owners[address]
        except KeyError:
            raise PseudonymError(f"unknown or closed endpoint {address}") from None

    def send(self, sender_id: int, address: Address, payload: Any) -> None:
        self.sent_count += 1
        if self._traffic.enabled:
            self._traffic.record(self._sim.now, f"node:{sender_id}", str(address))
        if self.loss.drop():
            return
        self._sim.post_after(
            self._latency.sample(), self._deliver, address, payload
        )

    def _deliver(self, address: Address, payload: Any) -> None:
        owner = self._owners.get(address)
        if owner is None:
            self.dropped_closed += 1
            return
        if self._directory.deliver(owner, payload):
            self.delivered_count += 1


class LinkLayer:
    """Facade over one anonymity service and one pseudonym service.

    This is the only interface the overlay layer sees, mirroring the
    architecture in Figure 2 of the paper.
    """

    # "network" is set by make_mixnet_link_layer so attack analyses and
    # overlay stats can reach the backing MixNetwork.
    __slots__ = ("directory", "anonymity", "pseudonym", "network")

    def __init__(
        self,
        directory: NodeDirectory,
        anonymity: AnonymityService,
        pseudonym: PseudonymServiceBase,
    ) -> None:
        self.directory = directory
        self.anonymity = anonymity
        self.pseudonym = pseudonym

    def register_node(self, node_id: int, inbox: Inbox, is_online: OnlineCheck) -> None:
        """Register a node's message sink and liveness predicate."""
        self.directory.register(node_id, inbox, is_online)

    def send_to_node(self, sender_id: int, dest_id: int, payload: Any) -> None:
        """Trusted-link send (real ID known to the sender)."""
        self.anonymity.send(sender_id, dest_id, payload)

    def send_to_endpoint(self, sender_id: int, address: Address, payload: Any) -> None:
        """Pseudonym-link send (only the pseudonym known)."""
        self.pseudonym.send(sender_id, address, payload)

    def send_reverse(self, sender_id: int, dest_id: int, payload: Any) -> None:
        """Push a message down an *established incoming* link.

        Overlay links are bidirectional channels ("all communication
        through overlay links can be bidirectional", paper §IV-C): once
        peer m holds a pseudonym link to n, n can answer over that same
        channel without ever learning m's identity — in a deployment the
        link is a standing mix circuit both ends can write to.  The
        simulation routes by destination id, which stands in for the
        channel handle; it does not model an identity disclosure.
        """
        self.anonymity.send(sender_id, dest_id, payload)

    def create_endpoint(self, owner_id: int) -> Address:
        """Create a pseudonym endpoint for ``owner_id``."""
        return self.pseudonym.create_endpoint(owner_id)

    def close_endpoint(self, address: Address) -> None:
        """Retire a pseudonym endpoint."""
        self.pseudonym.close_endpoint(address)


def make_ideal_link_layer(
    sim: Simulator,
    rng: np.random.Generator,
    max_latency: float = 0.05,
    loss_rate: float = 0.0,
    traffic: Optional[TrafficLog] = None,
    fixed_latency: Optional[float] = None,
) -> LinkLayer:
    """Convenience constructor for the evaluation's ideal link layer.

    ``loss_rate`` > 0 departs from the ideal model: each message is
    independently dropped with that probability even when the
    destination is online (network-loss stress testing).
    ``fixed_latency`` replaces the uniform latency draw with a constant
    (no RNG consumption) — deterministic per-hop timing for round-exact
    dissemination tests.
    """
    directory = NodeDirectory()
    anonymity = IdealAnonymityService(
        sim, directory, rng, max_latency=max_latency, loss_rate=loss_rate,
        traffic=traffic, fixed_latency=fixed_latency,
    )
    pseudonym = IdealPseudonymService(
        sim, directory, rng, max_latency=max_latency, loss_rate=loss_rate,
        traffic=traffic, fixed_latency=fixed_latency,
    )
    return LinkLayer(directory, anonymity, pseudonym)
