"""Pseudonyms (paper Section III-C).

A pseudonym is "an address that any other node m can use in conjunction
with the pseudonym service to build a link to n such that n's ID is not
disclosed to m and vice versa".  For the sampling protocol it must look
like a "random p-bit sequence"; for routing it must name a pseudonym-
service endpoint.  :class:`Pseudonym` therefore carries:

* ``value`` — the random p-bit integer the Brahms-style sampler keys on;
* ``address`` — the pseudonym-service endpoint messages are sent to;
* ``expires_at`` — absolute expiry time (``math.inf`` = never), the
  TTL mechanism that drives overlay reconfiguration and bounds what
  any observer can correlate.

Crucially, a pseudonym does **not** contain its owner's identity: the
owner mapping lives only inside the pseudonym service (and, for
measurement, in the simulation's omniscient registry).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import PseudonymError
from ..privlink import Address
from ..rng import PSEUDONYM_BITS, random_bits

__all__ = ["Pseudonym", "mint_pseudonym"]


@dataclasses.dataclass(frozen=True)
class Pseudonym:
    """An anonymous, ephemeral node address."""

    value: int
    address: Address
    expires_at: float

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << PSEUDONYM_BITS):
            raise PseudonymError(
                f"pseudonym value {self.value} outside [0, 2^{PSEUDONYM_BITS})"
            )

    def is_expired(self, now: float) -> bool:
        """Whether the pseudonym's lifetime has elapsed at ``now``."""
        return now >= self.expires_at

    @property
    def never_expires(self) -> bool:
        """True for ``r = Infinite`` pseudonyms."""
        return math.isinf(self.expires_at)

    def __str__(self) -> str:
        expiry = "inf" if self.never_expires else f"{self.expires_at:.1f}"
        return f"Pseudonym({self.value:016x} @ {self.address}, exp={expiry})"


def mint_pseudonym(
    rng: np.random.Generator,
    address: Address,
    now: float,
    lifetime: float,
) -> Pseudonym:
    """Create a fresh pseudonym bound to an endpoint address.

    Parameters
    ----------
    rng:
        Randomness for the p-bit value.
    address:
        A newly created pseudonym-service endpoint.
    now:
        Current simulated time.
    lifetime:
        Pseudonym lifetime in shuffling periods; ``math.inf`` disables
        expiry.

    Notes
    -----
    The paper observes that if pseudonyms cannot natively be random bit
    strings, "a similar effect can be achieved by adding some random
    bits [...] and then applying a cryptographically strong hash
    function".  Here values are drawn uniformly, which is the ideal the
    hashing construction approximates.
    """
    if not lifetime > 0:  # NaN fails too: it would never expire
        raise PseudonymError(f"lifetime must be positive, got {lifetime}")
    expires_at = math.inf if math.isinf(lifetime) else now + lifetime
    return Pseudonym(
        value=random_bits(rng, PSEUDONYM_BITS),
        address=address,
        expires_at=expires_at,
    )
