"""Privacy-preserving link layer (paper Section III-B).

Provides the anonymity service (send to a known node id without
observable linkage) and pseudonym service (send to an anonymous
endpoint address), in three flavors:

* **Ideal** (:func:`make_ideal_link_layer`) — the evaluation's
  assumption: reliable, low-latency delivery iff the destination is
  online.
* **Mixnet** (:func:`make_mixnet_link_layer`) — simulated Chaum mixes
  with layered encryption, relay replay caches, and hidden-service
  style rendezvous pseudonyms; feeds the attack analyses.
* **Mailbox** (:class:`MailboxPseudonymService`) — the storage-backed
  alternative from the paper, which also covers offline receivers.
"""

from .crypto import Sealed, layer_digest, message_digest, seal, seal_layers, unseal
from .identity import KeyPair, KeyRegistry, NodeID
from .link import (
    Address,
    AnonymityService,
    IdealAnonymityService,
    IdealPseudonymService,
    LinkLayer,
    NodeDirectory,
    PseudonymServiceBase,
    make_ideal_link_layer,
)
from .mixnet import (
    MixNetwork,
    MixnetAnonymityService,
    Relay,
    RendezvousPseudonymService,
    make_mixnet_link_layer,
)
from .storage import MailboxPseudonymService, MailboxStore, StoredMessage
from .traffic import TrafficLog, TrafficRecord

__all__ = [
    "NodeID",
    "KeyPair",
    "KeyRegistry",
    "Sealed",
    "seal",
    "seal_layers",
    "unseal",
    "message_digest",
    "layer_digest",
    "Address",
    "NodeDirectory",
    "AnonymityService",
    "PseudonymServiceBase",
    "LinkLayer",
    "IdealAnonymityService",
    "IdealPseudonymService",
    "make_ideal_link_layer",
    "Relay",
    "MixNetwork",
    "MixnetAnonymityService",
    "RendezvousPseudonymService",
    "make_mixnet_link_layer",
    "MailboxStore",
    "MailboxPseudonymService",
    "StoredMessage",
    "TrafficLog",
    "TrafficRecord",
]
