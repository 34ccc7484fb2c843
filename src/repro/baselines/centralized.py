"""The centralized-directory baseline the paper rules out.

Section II-E: "we cannot use a centralized node directory service in
our solution because the latter can be compromised (consider data
leaks from Facebook or other social networking sites)".  Related work
(Whisper) likewise relies on an invitation server that knows the
membership.

This module implements that rejected design as a *baseline*: a
:class:`DirectoryServer` knows every member and its liveness; each node
asks it for ``target_degree`` uniformly random peers on join and
refreshes periodically.  The topology this produces is the ideal the
paper's gossip protocol approximates — so comparing the two quantifies
the **price of privacy**: how much convergence time and overhead the
decentralized, pseudonym-based protocol pays to avoid the directory's
catastrophic trust assumption.

The privacy cost of the baseline is explicit in the API:
:meth:`DirectoryServer.breach` returns everything a compromise leaks —
the complete member list and the entire link structure, in one shot.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..churn import ChurnProcess, homogeneous_specs
from ..config import SystemConfig
from ..errors import ExperimentError
from ..graphs import FlatSnapshot
from ..rng import RandomStreams
from ..sim import Simulator

__all__ = ["DirectoryServer", "CentralizedOverlay", "BreachReport"]


@dataclasses.dataclass(frozen=True)
class BreachReport:
    """Everything a directory compromise discloses at once."""

    members: FrozenSet[int]
    links: Tuple[Tuple[int, int], ...]

    @property
    def identities_exposed(self) -> int:
        """Count of real identities leaked (= the whole group)."""
        return len(self.members)


class DirectoryServer:
    """An omniscient membership directory (the rejected design)."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._members: Set[int] = set()
        self._links: Dict[int, Set[int]] = {}
        self.queries_served = 0

    def register(self, node_id: int) -> None:
        """A member announces itself (disclosing its identity)."""
        self._members.add(node_id)
        self._links.setdefault(node_id, set())

    def sample_peers(self, node_id: int, count: int) -> List[int]:
        """Hand out uniformly random members (excluding the asker)."""
        self.queries_served += 1
        candidates = [member for member in self._members if member != node_id]
        if not candidates:
            return []
        size = min(count, len(candidates))
        indices = self._rng.choice(len(candidates), size=size, replace=False)
        return [candidates[int(index)] for index in indices]

    def record_link(self, u: int, v: int) -> None:
        """The server also learns the links it brokers."""
        self._links.setdefault(u, set()).add(v)
        self._links.setdefault(v, set()).add(u)

    def breach(self) -> BreachReport:
        """What an attacker gets by compromising the directory."""
        edges = set()
        for u, neighbors in self._links.items():
            for v in neighbors:
                edges.add((min(u, v), max(u, v)))
        return BreachReport(
            members=frozenset(self._members), links=tuple(sorted(edges))
        )


class CentralizedOverlay:
    """Random overlay maintained through the central directory.

    API mirrors :class:`repro.core.Overlay` closely enough for
    experiments to compare them: ``build``/``start``/``run_until``/
    ``snapshot``/``online_ids``.
    """

    def __init__(
        self,
        config: SystemConfig,
        sim: Simulator,
        churn: Optional[ChurnProcess],
        rng: np.random.Generator,
        refresh_period: float = 1.0,
    ) -> None:
        if refresh_period <= 0:
            raise ExperimentError("refresh_period must be positive")
        self.config = config
        self.sim = sim
        self.churn = churn
        self.directory = DirectoryServer(rng)
        self._rng = rng
        self._refresh_period = refresh_period
        self._links: Dict[int, Set[int]] = {
            node_id: set() for node_id in range(config.num_nodes)
        }
        self.messages_sent = 0
        self._started = False

    @classmethod
    def build(
        cls,
        config: SystemConfig,
        with_churn: bool = True,
        refresh_period: float = 1.0,
    ) -> "CentralizedOverlay":
        streams = RandomStreams(config.seed)
        sim = Simulator()
        churn: Optional[ChurnProcess] = None
        if with_churn:
            churn = ChurnProcess(
                sim,
                homogeneous_specs(
                    config.num_nodes, config.availability, config.mean_offline_time
                ),
                streams.substream("churn"),
            )
        return cls(
            config,
            sim,
            churn,
            streams.substream("directory"),
            refresh_period=refresh_period,
        )

    def start(self) -> None:
        """Register everyone; online nodes fetch their first peer sets."""
        if self._started:
            raise ExperimentError("already started")
        self._started = True
        for node_id in range(self.config.num_nodes):
            self.directory.register(node_id)
        if self.churn is not None:
            self.churn.set_listener(self._on_transition)
            self.churn.start()
            online = set(self.churn.online_nodes())
        else:
            online = set(range(self.config.num_nodes))
        for node_id in online:
            self._refresh(node_id)
        self.sim.post_after(self._refresh_period, self._periodic_refresh)

    def run_until(self, horizon: float) -> None:
        """Advance simulated time."""
        self.sim.run_until(horizon)

    def online_ids(self) -> List[int]:
        """Currently online members."""
        if self.churn is not None:
            return self.churn.online_nodes()
        return list(range(self.config.num_nodes))

    def _is_online(self, node_id: int) -> bool:
        if self.churn is None:
            return True
        return self.churn.is_online(node_id)

    def _on_transition(self, node_id: int, online: bool) -> None:
        if online:
            self._refresh(node_id)

    def _refresh(self, node_id: int) -> None:
        """Ask the directory to top the node's links up to target."""
        deficit = self.config.target_degree - len(self._links[node_id])
        if deficit <= 0:
            return
        peers = self.directory.sample_peers(node_id, deficit)
        self.messages_sent += 2  # request + response
        for peer in peers:
            self._links[node_id].add(peer)
            self.directory.record_link(node_id, peer)

    def _periodic_refresh(self) -> None:
        self.sim.post_after(self._refresh_period, self._periodic_refresh)
        for node_id in self.online_ids():
            self._refresh(node_id)

    def snapshot(self, online_only: bool = True) -> FlatSnapshot:
        """The current overlay as an undirected graph."""
        num_nodes = self.config.num_nodes
        if online_only:
            ids = np.array(sorted(self.online_ids()), dtype=np.int64)
        else:
            ids = np.arange(num_nodes, dtype=np.int64)
        position = np.full(num_nodes, -1, dtype=np.int64)
        position[ids] = np.arange(len(ids), dtype=np.int64)
        holders: List[int] = []
        peers: List[int] = []
        for node_id, links in self._links.items():
            holders.extend([node_id] * len(links))
            peers.extend(sorted(links))
        a = position[np.array(holders, dtype=np.int64)]
        b = position[np.array(peers, dtype=np.int64)]
        keep = (a >= 0) & (b >= 0)
        return FlatSnapshot.from_edge_positions(ids, a[keep], b[keep])
