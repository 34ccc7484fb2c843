"""One overlay link endpoint (paper Section III-A).

"The set of overlay links of a node n (denoted n.links) is the union of
its trusted links and pseudonym links."  :class:`LinkTarget` names one
member of that union; the set itself is
:class:`repro.core.arena.ArenaLinkSet`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..errors import ProtocolError
from .pseudonym import Pseudonym

__all__ = ["LinkTarget"]


@dataclasses.dataclass(frozen=True)
class LinkTarget:
    """One overlay link endpoint, as the owning node sees it.

    Exactly one of ``node_id`` (trusted link — the friend's real ID) and
    ``pseudonym`` (pseudonym link — nothing but the pseudonym) is set.
    """

    node_id: Optional[int] = None
    pseudonym: Optional[Pseudonym] = None

    def __post_init__(self) -> None:
        if (self.node_id is None) == (self.pseudonym is None):
            raise ProtocolError(
                "LinkTarget needs exactly one of node_id / pseudonym"
            )

    @property
    def is_trusted(self) -> bool:
        """Whether this is a trusted (friend) link."""
        return self.node_id is not None
