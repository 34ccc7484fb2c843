"""The link-layer facade that puts :class:`NetEndpoint` behind the
:class:`~repro.privlink.link.LinkLayer` surface.

The overlay protocol only ever calls ``register_node`` /
``send_to_node`` / ``send_to_endpoint`` / ``send_reverse`` /
``create_endpoint`` / ``close_endpoint`` on its link layer.
:class:`MeshLinkLayer` provides that surface over real transports for
any number of nodes in one process: it dispatches on the sender/owner
id to the right endpoint, so a single
:class:`~repro.core.protocol.Overlay` object drives N endpoints (the
localhost mesh harness) and every message still round-trips
encode → transport → decode.  The ``repro node`` CLI runs it with one
endpoint; any other node id is refused with :class:`NetError`.

``send_reverse`` maps to a trusted-link send, matching the ideal link
layer: the paper's bidirectional overlay channels are routed by
destination id as a stand-in for the standing channel handle.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..errors import NetError
from ..privlink import Address
from .endpoint import NetEndpoint

__all__ = ["MeshLinkLayer"]

Inbox = Callable[[Any], None]
OnlineCheck = Callable[[], bool]


class MeshLinkLayer:
    """N endpoints in one process, dispatched by sender/owner id."""

    def __init__(self) -> None:
        self._endpoints: Dict[int, NetEndpoint] = {}
        #: Which node minted each token (close_endpoint has no owner arg).
        self._token_owner: Dict[int, int] = {}

    def add(self, endpoint: NetEndpoint) -> None:
        """Adopt one node's endpoint (before the overlay is built)."""
        if endpoint.node_id in self._endpoints:
            raise NetError(f"endpoint for node {endpoint.node_id} already added")
        self._endpoints[endpoint.node_id] = endpoint

    def endpoint(self, node_id: int) -> NetEndpoint:
        """The endpoint serving ``node_id``."""
        try:
            return self._endpoints[node_id]
        except KeyError:
            raise NetError(f"no endpoint for node {node_id}") from None

    def endpoints(self) -> Dict[int, NetEndpoint]:
        """All endpoints by node id (read-only use)."""
        return dict(self._endpoints)

    def register_node(
        self, node_id: int, inbox: Inbox, is_online: OnlineCheck
    ) -> None:
        self.endpoint(node_id).attach(inbox, is_online)

    def send_to_node(self, sender_id: int, dest_id: int, payload: Any) -> None:
        self.endpoint(sender_id).send_to_node(dest_id, payload)

    def send_to_endpoint(
        self, sender_id: int, address: Address, payload: Any
    ) -> None:
        self.endpoint(sender_id).send_to_endpoint(address, payload)

    def send_reverse(self, sender_id: int, dest_id: int, payload: Any) -> None:
        self.endpoint(sender_id).send_to_node(dest_id, payload)

    def create_endpoint(self, owner_id: int) -> Address:
        address = self.endpoint(owner_id).create_endpoint()
        self._token_owner[address.token] = owner_id
        return address

    def close_endpoint(self, address: Address) -> None:
        owner = self._token_owner.pop(address.token, None)
        if owner is not None:
            self.endpoint(owner).close_endpoint(address)
