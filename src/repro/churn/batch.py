"""Vectorized whole-population churn for the round-based batch engine.

The event-driven :class:`~repro.churn.model.ChurnProcess` schedules one
simulator event per session transition — perfect for the paper-scale
runs, hopeless at 10⁶ nodes.  :class:`ShardedChurn` discretizes the
same alternating-renewal model (exponential online/offline durations,
Section IV-B) to one step per shuffle round: every online node leaves
with probability ``1 - exp(-1/T_on)`` and every offline node rejoins
with probability ``1 - exp(-1/T_off)``, evaluated for the whole
population with one uniform draw per node per round.  The stationary
availability ``T_on / (T_on + T_off)`` and the mean session lengths
match the continuous model; only sub-round timing is coarsened.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ChurnError
from .availability import mean_online_for

__all__ = ["ShardedChurn"]


class ShardedChurn:
    """Discretized exponential churn over a shard grid's population.

    Each shard (a contiguous node range) draws its nodes' uniforms from
    its own private stream, so the global online trajectory is a pure
    function of ``(seed, shard grid)`` — it does not depend on how many
    processes host the shards.  Workers replicate the full grid (one
    uniform draw per node per round is cheap), which gives every
    process the whole population's online mask locally for
    partner-reachability checks.

    Parameters
    ----------
    bounds:
        Shard boundaries, ``len == num_shards + 1``, ``bounds[0] == 0``;
        shard ``s`` owns global node ids ``[bounds[s], bounds[s+1])``.
        Empty shards are allowed and draw nothing, so grid padding does
        not shift the populated shards' streams.
    availability:
        Stationary online fraction ``a`` in (0, 1).
    mean_offline_time:
        Mean offline duration ``T_off`` in rounds; ``T_on`` follows from
        :func:`~repro.churn.availability.mean_online_for`.
    rngs:
        One private generator per shard.  A non-empty shard draws
        ``random(size)`` once at construction (stationary seating, unless
        ``start_all_online``) and once per :meth:`step`.
    start_all_online:
        Seat every node online instead of a stationary draw.

    ``online`` is the population's mask.  It is only ever written in
    place: every :class:`~repro.core.batch.ShardEngine` holds a view.
    """

    __slots__ = ("num_nodes", "p_leave", "p_join", "online", "_shards")

    def __init__(
        self,
        bounds: Sequence[int],
        availability: float,
        mean_offline_time: float,
        rngs: Sequence[np.random.Generator],
        start_all_online: bool = False,
    ) -> None:
        bounds_arr = np.asarray(bounds, dtype=np.int64)
        if bounds_arr.ndim != 1 or len(bounds_arr) < 2 or bounds_arr[0] != 0:
            raise ChurnError(f"malformed shard bounds: {bounds_arr!r}")
        if np.any(np.diff(bounds_arr) < 0):
            raise ChurnError(f"shard bounds must be nondecreasing: {bounds_arr!r}")
        if len(rngs) != len(bounds_arr) - 1:
            raise ChurnError(
                f"need one rng per shard: {len(rngs)} rngs for "
                f"{len(bounds_arr) - 1} shards"
            )
        mean_online = mean_online_for(availability, mean_offline_time)
        self.p_leave = 1.0 - math.exp(-1.0 / mean_online)
        self.p_join = 1.0 - math.exp(-1.0 / mean_offline_time)
        self.num_nodes = int(bounds_arr[-1])
        self._shards: List[Tuple[int, int, np.random.Generator]] = [
            (int(lo), int(hi), rng)
            for lo, hi, rng in zip(bounds_arr[:-1], bounds_arr[1:], rngs)
            if hi > lo
        ]
        self.online = np.ones(self.num_nodes, dtype=bool)
        if not start_all_online:
            for lo, hi, rng in self._shards:
                np.less(rng.random(hi - lo), availability, out=self.online[lo:hi])

    def step(self) -> Tuple[np.ndarray, np.ndarray]:
        """Advance one round; returns global ``(joined_rows, left_rows)``.

        Each node draws one uniform (shard by shard, in shard order) and
        flips according to its state's per-round hazard, so the whole
        transition is two boolean masks.
        """
        draws = np.empty(self.num_nodes)
        for lo, hi, rng in self._shards:
            rng.random(out=draws[lo:hi])
        online = self.online
        left = online & (draws < self.p_leave)
        joined = ~online & (draws < self.p_join)
        online ^= left | joined
        return np.flatnonzero(joined), np.flatnonzero(left)

    def online_rows(self) -> np.ndarray:
        """Ids of currently online nodes, ascending."""
        return np.flatnonzero(self.online)

    def online_count(self) -> int:
        """Number of currently online nodes."""
        return int(self.online.sum())

    def online_fraction(self) -> float:
        """Currently online fraction of the population."""
        if self.num_nodes == 0:
            return 0.0
        return self.online_count() / self.num_nodes
