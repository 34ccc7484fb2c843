"""Shuffle protocol messages (paper Section III-D1).

One shuffle exchange is a request/response pair: "Each of the two nodes
sends an encrypted message containing a set of up to l pseudonyms to
the other [...] The set includes one node's own pseudonym and up to
l - 1 pseudonyms from the node's cache."

The wire types here carry *only* privacy-safe material:

* ``entries`` — pseudonyms (anonymous by construction);
* a reply channel — either the requester's real node id (legitimate
  only over a trusted link, where the two friends already know each
  other) or the requester's own pseudonym address (over pseudonym
  links, so the responder learns nothing about the requester's ID).

End-to-end encryption of these messages is the application's duty in
the paper; in the simulation the link layer's sealed delivery plays
that role.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from ..errors import ProtocolError
from ..privlink import Address
from .pseudonym import Pseudonym

__all__ = ["ShuffleRequest", "ShuffleResponse", "make_shuffle_set"]


@dataclasses.dataclass(frozen=True)
class ShuffleRequest:
    """A shuffle initiation carrying the initiator's pseudonym set.

    Exactly one of ``reply_node`` / ``reply_address`` is set, depending
    on whether the request traveled over a trusted or a pseudonym link.
    """

    entries: Tuple[Pseudonym, ...]
    reply_node: Optional[int] = None
    reply_address: Optional[Address] = None

    def __post_init__(self) -> None:
        if (self.reply_node is None) == (self.reply_address is None):
            raise ProtocolError(
                "ShuffleRequest needs exactly one reply channel"
            )
        if not self.entries:
            raise ProtocolError("ShuffleRequest must carry at least one entry")

    @property
    def over_trusted_link(self) -> bool:
        """Whether the request traveled between mutually trusting nodes."""
        return self.reply_node is not None


@dataclasses.dataclass(frozen=True)
class ShuffleResponse:
    """The responder's pseudonym set, sent back over the reply channel."""

    entries: Tuple[Pseudonym, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ProtocolError("ShuffleResponse must carry at least one entry")


def make_shuffle_set(
    own: Pseudonym,
    cache_selection: Sequence[Pseudonym],
    limit: int,
) -> Tuple[Pseudonym, ...]:
    """Assemble a shuffle set: own pseudonym plus cache entries, capped.

    The own pseudonym always leads — its inclusion in every exchange is
    what propagates fresh pseudonyms after renewal.
    """
    if limit < 1:
        raise ProtocolError("shuffle set limit must be at least 1")
    own_value = own.value
    others = [entry for entry in cache_selection if entry.value != own_value]
    return (own, *others[: limit - 1])
