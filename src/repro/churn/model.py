"""The Yao et al. alternating-renewal churn model (Section IV-B).

Each node independently alternates between *online* and *offline*
states; the time spent in each state is drawn from a per-node duration
distribution.  The paper gives every node the same exponential
parameters ``Ton`` (mean online time) and ``Toff`` (mean offline time),
yielding average availability ``alpha = Ton / (Ton + Toff)``; we also
support heterogeneous per-node parameters, which Yao et al. emphasize.

:class:`ChurnProcess` drives the state machine on a
:class:`~repro.sim.simulator.Simulator`, invoking a listener on every
transition.  Initial states are drawn from the stationary distribution
(each node online with probability its availability) so experiments
start in steady state rather than with a synchronized flash crowd.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import ChurnError
from ..sim import Simulator
from .availability import mean_online_for
from .distributions import DurationDistribution, Exponential

__all__ = ["NodeChurnSpec", "ChurnProcess", "homogeneous_specs"]

TransitionListener = Callable[[int, bool], None]


class NodeChurnSpec:
    """Per-node churn parameters: online and offline duration sources."""

    __slots__ = ("online", "offline")

    def __init__(
        self, online: DurationDistribution, offline: DurationDistribution
    ) -> None:
        self.online = online
        self.offline = offline

    @property
    def availability(self) -> float:
        """Long-run fraction of time the node is online."""
        return self.online.mean / (self.online.mean + self.offline.mean)

    def __repr__(self) -> str:
        return f"NodeChurnSpec(online={self.online!r}, offline={self.offline!r})"


def homogeneous_specs(
    num_nodes: int, availability: float, mean_offline_time: float
) -> List[NodeChurnSpec]:
    """The paper's setting: identical exponential churn for every node.

    ``Ton`` is derived from the requested availability and ``Toff``.
    """
    mean_online = mean_online_for(availability, mean_offline_time)
    return [
        NodeChurnSpec(Exponential(mean_online), Exponential(mean_offline_time))
        for _ in range(num_nodes)
    ]


class ChurnProcess:
    """Drives per-node online/offline transitions on a simulator.

    Parameters
    ----------
    sim:
        The simulator providing the clock and event queue.
    specs:
        One :class:`NodeChurnSpec` per node; node ids are the indices.
    rng:
        Randomness for state durations and the initial state draw.
    start_all_online:
        If true, every node starts online (useful for convergence
        experiments that begin from a full system); otherwise initial
        states follow the stationary distribution.
    """

    def __init__(
        self,
        sim: Simulator,
        specs: Sequence[NodeChurnSpec],
        rng: np.random.Generator,
        start_all_online: bool = False,
    ) -> None:
        if not specs:
            raise ChurnError("specs must not be empty")
        self._sim = sim
        self._specs = list(specs)
        self._rng = rng
        self._listener: Optional[TransitionListener] = None
        self._online: List[bool] = [False] * len(specs)
        self._transitions = 0
        self._started = False
        self._start_all_online = start_all_online

    @property
    def num_nodes(self) -> int:
        """Number of nodes driven by this process."""
        return len(self._specs)

    @property
    def transitions(self) -> int:
        """Total number of state changes so far."""
        return self._transitions

    def is_online(self, node_id: int) -> bool:
        """Current state of ``node_id``."""
        return bool(self._online[node_id])

    def online_nodes(self) -> List[int]:
        """Ids of all currently online nodes."""
        return [node for node, online in enumerate(self._online) if online]

    def online_count(self) -> int:
        """Number of currently online nodes."""
        return sum(self._online)

    def set_listener(self, listener: TransitionListener) -> None:
        """Install the transition listener (may be set after start).

        It is called as ``listener(node_id, online)`` on every
        transition *after* the internal state is updated.  The initial
        state draw does not invoke it; read :meth:`is_online` instead.
        """
        self._listener = listener

    def start(self) -> None:
        """Draw initial states and schedule the first transitions.

        Exponential residual times are memoryless, so drawing a fresh
        full duration for the current state is exactly the stationary
        behaviour; for heavy-tailed distributions it is an approximation
        that converges after a warm-up period.
        """
        if self._started:
            raise ChurnError("churn process already started")
        self._started = True
        for node_id, spec in enumerate(self._specs):
            if self._start_all_online:
                online = True
            else:
                online = bool(self._rng.random() < spec.availability)
            self._online[node_id] = online
            distribution = spec.online if online else spec.offline
            delay = distribution.sample(self._rng)
            self._sim.post_after(delay, self._transition, node_id)

    def add_node(self, spec: NodeChurnSpec, start_online: bool = True) -> int:
        """Grow the population by one node; returns its id.

        Supports runtime trust-graph growth: the new node's first state
        is ``start_online`` (a joining user is typically online), and
        its alternation is scheduled immediately when the process has
        started.
        """
        node_id = len(self._specs)
        self._specs.append(spec)
        self._online.append(start_online)
        if self._started:
            distribution = spec.online if start_online else spec.offline
            delay = distribution.sample(self._rng)
            self._sim.post_after(delay, self._transition, node_id)
        return node_id

    def _transition(self, node_id: int) -> None:
        new_state = not self._online[node_id]
        self._online[node_id] = new_state
        self._transitions += 1
        spec = self._specs[node_id]
        distribution = spec.online if new_state else spec.offline
        delay = distribution.sample(self._rng)
        self._sim.post_after(delay, self._transition, node_id)
        if self._listener is not None:
            self._listener(node_id, new_state)
