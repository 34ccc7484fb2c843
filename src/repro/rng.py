"""Deterministic random-number management.

Simulation experiments must be exactly reproducible from a single seed,
yet independent subsystems (graph generation, churn, each node's gossip
decisions) must not perturb each other's random streams when one of them
changes how many numbers it draws.  This module provides named,
independently seeded substreams derived from a root seed via
``numpy.random.SeedSequence`` spawning.

Example
-------
>>> streams = RandomStreams(seed=42)
>>> churn_rng = streams.substream("churn")
>>> node_rng = streams.substream("node", 17)
>>> churn_rng.random() == RandomStreams(seed=42).substream("churn").random()
True
"""

from __future__ import annotations

import functools
import hashlib
import operator
from typing import Tuple, Union

import numpy as np

from .config import DEFAULT_SEED

__all__ = [
    "RandomStreams",
    "PSEUDONYM_BITS",
    "ScalarDraws",
    "random_bits",
    "fallback_rng",
]

#: Number of bits in a pseudonym / slot-reference value.  The paper calls
#: pseudonyms "random p-bit sequences"; we use 63 bits so values fit in a
#: signed 64-bit integer (safe for numpy vectorized distance math).
PSEUDONYM_BITS = 63

_Key = Tuple[Union[str, int], ...]


def _key_to_entropy(key: _Key) -> int:
    """Hash a substream key to a stable 128-bit integer."""
    text = "\x1f".join(str(part) for part in key)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


class RandomStreams:
    """A factory of named, independent random generators.

    Parameters
    ----------
    seed:
        Root seed.  Two :class:`RandomStreams` built from the same seed
        produce identical substreams for identical keys.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed

    @property
    def seed(self) -> int:
        """The root seed this stream factory was built from."""
        return self._seed

    def substream(self, *key: Union[str, int]) -> np.random.Generator:
        """Return an independent generator for the given key.

        The same ``(seed, key)`` pair always yields a generator that
        produces the same sequence, regardless of how many other
        substreams were created or used.
        """
        if not key:
            raise ValueError("substream key must not be empty")
        entropy = _key_to_entropy(key)
        seq = np.random.SeedSequence(entropy=[self._seed, entropy])
        return np.random.default_rng(seq)

    def spawn(self, *key: Union[str, int]) -> "RandomStreams":
        """Derive a child factory whose streams are independent of ours."""
        return RandomStreams(_key_to_entropy((self._seed,) + key) & ((1 << 63) - 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed})"


def fallback_rng(*key: Union[str, int]) -> np.random.Generator:
    """A deterministic generator for call sites given no explicit RNG.

    Library functions accepting an optional ``rng`` parameter must not
    fall back to OS entropy (``np.random.default_rng()``) — that would
    make "forgot to pass rng=" runs unreproducible, which ``repro.lint``
    rule DET001 rejects.  Instead they call this helper with a key
    naming the call site::

        if rng is None:
            rng = fallback_rng("graphs.sampling")

    The generator derives from :data:`repro.config.DEFAULT_SEED`, so two
    processes hitting the same fallback produce identical draws.  Each
    call returns a *fresh* generator: repeated rng-less invocations of
    the same function yield identical results by design (determinism
    beats variety — pass an explicit rng for independent draws).
    """
    return RandomStreams(DEFAULT_SEED).substream("fallback", *(key or ("default",)))


def random_bits(rng: np.random.Generator, bits: int = PSEUDONYM_BITS) -> int:
    """Draw a uniform random ``bits``-bit integer from ``rng``."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    value = 0
    remaining = bits
    while remaining > 0:
        chunk = min(remaining, 32)
        value = (value << chunk) | int(rng.integers(0, 1 << chunk))
        remaining -= chunk
    return value


_TWO_32 = 1 << 32


class ScalarDraws:
    """Scalar draws from a Generator's own stream at C-call cost.

    ``below(n)`` returns exactly what ``int(rng.integers(0, n))`` would,
    for ``1 <= n <= 2**32``, and ``random()`` exactly what
    ``rng.random()`` would, but each skips the Generator's per-call
    argument handling by calling the bit generator's ``next_uint32`` /
    ``next_double`` through ``rng.bit_generator.ctypes`` (on one x86-64
    host: 0.27 µs a word against 1.5 µs per ``integers(0, n)`` call).
    Both advance the Generator's own state, the buffered 32-bit
    half-word included, so draws through the helper and direct ``rng``
    calls mix freely and leave the same ``bit_generator.state``.

    ``below`` applies numpy's bounded rule for 32-bit ranges: Lemire's
    multiply-and-reject over ``next_uint32`` words, the raw word for
    ``n == 2**32``, and no draw at all for ``n == 1``.  Any other ``n``
    raises ``ValueError``.  The helper does not take the bit generator's
    lock; do not share the Generator across threads while drawing.

    ``below`` and ``random`` are plain callables, so hot loops bind them
    to locals once.
    """

    __slots__ = ("below", "random")

    def __init__(self, rng: np.random.Generator) -> None:
        interface = rng.bit_generator.ctypes
        next_uint32 = interface.next_uint32
        state = interface.state
        random = functools.partial(interface.next_double, state)

        def below(n: int) -> int:
            if type(n) is int and 1 < n < _TWO_32:
                word = next_uint32(state) * n
                if word & 0xFFFFFFFF < n:
                    threshold = (_TWO_32 - n) % n
                    while word & 0xFFFFFFFF < threshold:
                        word = next_uint32(state) * n
                return word >> 32
            n = operator.index(n)
            if n == 1:
                return 0
            if n == _TWO_32:
                return next_uint32(state)
            if 1 < n < _TWO_32:
                return below(n)
            raise ValueError(f"below(n) needs 1 <= n <= 2**32, got {n}")

        # ``state`` is a raw pointer: each draw keeps its owner alive, so
        # a bound draw stays valid after the helper and ``rng`` are gone.
        below.bit_generator = random.bit_generator = rng.bit_generator
        self.below, self.random = below, random
