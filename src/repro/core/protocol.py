"""Overlay orchestration: build, run, and observe a whole system.

:class:`Overlay` wires together everything a paper experiment needs:

* a trust graph (a :class:`~repro.graphs.FlatSnapshot` with node ids
  ``0..n-1``),
* one :class:`~repro.core.node.OverlayNode` per vertex, with the
  degree-adaptive sampler size
  ``S = max(min_pseudonym_links, target_degree - trusted_degree)``,
* a privacy-preserving link layer (ideal by default),
* the churn process flipping nodes online/offline,
* an omniscient measurement registry mapping pseudonyms to owners —
  used *only* to build snapshot graphs for metrics, never by protocol
  logic (no protocol entity can resolve a pseudonym to an ID).

The usual entry point is :meth:`Overlay.build`, which constructs the
simulator, random streams, link layer, and churn from a
:class:`~repro.config.SystemConfig`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..churn import (
    ChurnProcess,
    NodeChurnSpec,
    SessionTrace,
    homogeneous_specs,
    replay_trace,
)
from ..config import SystemConfig
from ..errors import GraphError, ProtocolError
from ..graphs.fastgraph import FlatSnapshot, SnapshotAnalysis
from ..privlink import Address, LinkLayer, make_ideal_link_layer
from ..rng import RandomStreams
from ..sim import Clock, Simulator
from .arena import NodeArena, assemble_snapshot
from .maintenance import AdaptiveLifetime, LifetimePolicy
from .node import OverlayNode
from .pseudonym import Pseudonym

__all__ = ["Overlay", "OverlayStats"]


@dataclasses.dataclass
class OverlayStats:
    """System-wide cumulative statistics at a point in time.

    The mixnet fields stay at their zero defaults when the link layer
    is not mixnet-backed (the ideal and mailbox layers have no relays
    or circuits).
    """

    time: float
    online_nodes: int
    messages_sent: int
    link_replacements: int
    pseudonyms_created: int
    replays_dropped: int = 0
    replay_cache_entries: int = 0
    replay_cache_flushes: int = 0
    circuit_cache_hits: int = 0
    circuit_cache_misses: int = 0


class Overlay:
    """A complete overlay system over one trust graph."""

    __slots__ = (
        "_trust_graph",
        "config",
        "sim",
        "link_layer",
        "churn",
        "nodes",
        "arena",
        "_streams",
        "_churn_trace",
        "_address_owner",
        "_started",
        "_trust_version",
        "_trust_snapshot_cache",
        "_online_epoch",
        "_online_cache",
        "_online_cache_epoch",
    )

    def __init__(
        self,
        trust_graph: FlatSnapshot,
        config: SystemConfig,
        sim: Clock,
        link_layer: LinkLayer,
        streams: RandomStreams,
        churn: Optional[ChurnProcess] = None,
    ) -> None:
        num_nodes = trust_graph.number_of_nodes()
        if num_nodes != config.num_nodes:
            raise GraphError(
                f"trust graph has {num_nodes} nodes but config.num_nodes is "
                f"{config.num_nodes}"
            )
        if not np.array_equal(trust_graph.node_ids, np.arange(num_nodes)):
            raise GraphError("trust graph nodes must be labeled 0..n-1")

        self.config = config
        self.sim = sim
        self.link_layer = link_layer
        self.churn = churn
        self._streams = streams
        self._churn_trace: Optional[SessionTrace] = None

        #: The columnar node plane backing every node's link/cache/slot
        #: state; see docs/node_plane.md.  Its pseudonym table also
        #: holds the omniscient value -> owner registry.
        self.arena = NodeArena()
        # Omniscient measurement registry (never read by protocol code).
        self._address_owner: Dict[Address, int] = {}
        self.nodes: List[OverlayNode] = []
        for node_id in range(num_nodes):
            neighbors = trust_graph.neighbors(node_id)
            slot_count = max(
                config.min_pseudonym_links,
                config.target_degree - len(neighbors),
            )
            policy: Optional[LifetimePolicy] = None
            if config.adaptive_lifetime:
                policy = AdaptiveLifetime(
                    ratio=config.lifetime_ratio,
                    initial_estimate=config.mean_offline_time,
                    smoothing=config.adaptive_smoothing,
                )
            node = OverlayNode(
                node_id=node_id,
                trusted_neighbors=neighbors,
                slot_count=slot_count,
                cache_size=config.cache_size,
                shuffle_length=config.shuffle_length,
                pseudonym_lifetime=config.pseudonym_lifetime,
                sim=sim,
                link_layer=link_layer,
                rng=streams.substream("node", node_id),
                pseudonym_listener=self._record_pseudonym,
                sampler_mode=config.sampler_mode,
                lifetime_policy=policy,
                arena=self.arena,
            )
            node.online_listener = self._on_online_change
            self.nodes.append(node)

        self._started = False
        # The trust graph, the online set and the restricted trust graph
        # are invalidated by epoch/version counters instead of re-scans.
        self._trust_version = 0
        self._trust_graph: Tuple[int, FlatSnapshot] = (0, trust_graph)
        self._trust_snapshot_cache: Optional[
            Tuple[Tuple[int, int], FlatSnapshot]
        ] = None
        self._online_epoch = 0
        self._online_cache: Optional[List[int]] = None
        self._online_cache_epoch = -1

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        trust_graph: FlatSnapshot,
        config: SystemConfig,
        with_churn: bool = True,
        start_all_online: bool = False,
        churn_specs: Optional[List[NodeChurnSpec]] = None,
        churn_trace: Optional[SessionTrace] = None,
        link_layer_factory=None,
    ) -> "Overlay":
        """One-stop construction from a trust graph and a config.

        Parameters
        ----------
        trust_graph:
            Connected graph with nodes ``0..config.num_nodes-1``
            (labels other than those raise :class:`GraphError`).
        config:
            Protocol and simulation parameters.
        with_churn:
            When False, every node is permanently online (no churn
            process) — useful for convergence micro-studies.
        start_all_online:
            Passed to the churn process: start from a full system
            instead of the stationary online set.
        churn_specs:
            Optional heterogeneous per-node churn; defaults to the
            paper's homogeneous exponential model.
        churn_trace:
            Pre-generated churn schedule
            (:func:`repro.churn.generate_trace`).  Drives availability
            deterministically instead of a live churn process — use it
            to expose the overlay and any baseline to *identical*
            availability patterns.  Mutually exclusive with
            ``churn_specs``; ignores ``start_all_online``.
        link_layer_factory:
            ``factory(sim, rng) -> LinkLayer``; defaults to the ideal
            link layer with ``config.message_latency``.
        """
        if churn_trace is not None and churn_specs is not None:
            raise ProtocolError("pass churn_specs or churn_trace, not both")
        streams = RandomStreams(config.seed)
        sim = Simulator()
        if link_layer_factory is None:
            link_layer = make_ideal_link_layer(
                sim, streams.substream("link-layer"),
                max_latency=config.message_latency,
            )
        else:
            link_layer = link_layer_factory(sim, streams.substream("link-layer"))

        churn: Optional[ChurnProcess] = None
        if churn_trace is not None:
            if churn_trace.num_nodes != config.num_nodes:
                raise ProtocolError(
                    f"churn trace covers {churn_trace.num_nodes} nodes, "
                    f"config expects {config.num_nodes}"
                )
            overlay = cls(trust_graph, config, sim, link_layer, streams)
            overlay._churn_trace = churn_trace
            return overlay
        if with_churn:
            if churn_specs is None:
                churn_specs = homogeneous_specs(
                    config.num_nodes, config.availability, config.mean_offline_time
                )
            churn = ChurnProcess(
                sim,
                churn_specs,
                streams.substream("churn"),
                start_all_online=start_all_online,
            )
        return cls(trust_graph, config, sim, link_layer, streams, churn=churn)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start churn (if any) and bring the initial online set up.

        Without churn, every node comes online at time zero — this
        reproduces the paper's synchronized start whose pseudonym
        expirations cause the early oscillations in Figure 9.
        """
        if self._started:
            raise ProtocolError("overlay already started")
        self._started = True
        if self._churn_trace is not None:
            replay_trace(self.sim, self._churn_trace, self._on_churn_transition)
            for node_id, online in enumerate(self._churn_trace.initial_online):
                if online:
                    self.nodes[node_id].come_online()
        elif self.churn is not None:
            self.churn.set_listener(self._on_churn_transition)
            self.churn.start()
            for node_id in self.churn.online_nodes():
                self.nodes[node_id].come_online()
        else:
            for node in self.nodes:
                node.come_online()

    def run_until(self, horizon: float) -> None:
        """Advance the simulation to ``horizon`` shuffling periods."""
        if not self._started:
            raise ProtocolError("call start() before run_until()")
        self.sim.run_until(horizon)

    # ------------------------------------------------------------------
    # trust-graph growth (additions only; removals are future work in
    # the paper and here)
    # ------------------------------------------------------------------

    def add_trust_edge(self, u: int, v: int) -> None:
        """Record a new trust relationship between existing nodes.

        Both users learn of the friendship out of band (the paper's
        bootstrap assumption); adding edges discloses nothing new to
        third parties.
        """
        if u == v:
            raise ProtocolError("a node cannot trust itself")
        for node_id in (u, v):
            if not 0 <= node_id < len(self.nodes):
                raise ProtocolError(f"no such node {node_id}")
        self.nodes[u].links.add_trusted(v)
        self.nodes[v].links.add_trusted(u)
        self._trust_version += 1

    def add_node(
        self,
        trusted_neighbors: List[int],
        start_online: bool = True,
    ) -> int:
        """Invite a new user into the group; returns the new node id.

        The newcomer knows only its inviters (its trust neighbors) and
        joins with empty protocol state, exactly like a first-time
        start.  Under churn, it begins ``start_online`` and then follows
        the same availability model as everyone else.
        """
        if not trusted_neighbors:
            raise ProtocolError("a new node needs at least one inviter")
        for neighbor in trusted_neighbors:
            if not 0 <= neighbor < len(self.nodes):
                raise ProtocolError(f"no such inviter {neighbor}")
        node_id = len(self.nodes)
        for neighbor in set(trusted_neighbors):
            self.nodes[neighbor].links.add_trusted(node_id)

        config = self.config
        slot_count = max(
            config.min_pseudonym_links,
            config.target_degree - len(set(trusted_neighbors)),
        )
        policy: Optional[LifetimePolicy] = None
        if config.adaptive_lifetime:
            policy = AdaptiveLifetime(
                ratio=config.lifetime_ratio,
                initial_estimate=config.mean_offline_time,
                smoothing=config.adaptive_smoothing,
            )
        node = OverlayNode(
            node_id=node_id,
            trusted_neighbors=set(trusted_neighbors),
            slot_count=slot_count,
            cache_size=config.cache_size,
            shuffle_length=config.shuffle_length,
            pseudonym_lifetime=config.pseudonym_lifetime,
            sim=self.sim,
            link_layer=self.link_layer,
            rng=self._streams.substream("node", node_id),
            pseudonym_listener=self._record_pseudonym,
            sampler_mode=config.sampler_mode,
            lifetime_policy=policy,
            arena=self.arena,
        )
        node.online_listener = self._on_online_change
        self.nodes.append(node)
        self._trust_version += 1
        # New node: cached online sets are stale even before any
        # transition (the churn process may seat it online).
        self._online_epoch += 1

        if self.churn is not None:
            from ..churn import Exponential, NodeChurnSpec

            spec = NodeChurnSpec(
                Exponential(config.mean_online_time),
                Exponential(config.mean_offline_time),
            )
            self.churn.add_node(spec, start_online=start_online)
        if self._started and start_online:
            node.come_online()
        return node_id

    def _on_churn_transition(self, node_id: int, online: bool) -> None:
        # Bump here as well as in the node listener: the churn process
        # has already flipped its own online table even when the node
        # call below is a no-op (e.g. a test toggled the node directly).
        self._online_epoch += 1
        if online:
            self.nodes[node_id].come_online()
        else:
            self.nodes[node_id].go_offline()

    def _on_online_change(self, node_id: int, online: bool) -> None:
        self._online_epoch += 1

    def _record_pseudonym(self, node_id: int, pseudonym: Pseudonym) -> None:
        self.arena.pseudonyms.value_owner[pseudonym.value] = node_id
        self._address_owner[pseudonym.address] = node_id

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def substream(self, *key) -> np.random.Generator:
        """A named random substream derived from the overlay's root seed.

        Auxiliary layers (dissemination, attacks, measurement) draw
        their randomness here so they never perturb protocol streams.
        """
        return self._streams.substream("aux", *key)

    def online_ids(self) -> List[int]:
        """Ids of currently online nodes, ascending.

        Cached on an epoch counter bumped by every online/offline
        transition, so repeated calls within one measurement sample are
        O(k) copies instead of O(n) re-scans.  Callers that need the
        set several times in one tick should still call this once and
        pass the list down (``snapshot``/``trust_snapshot``/``stats``
        all accept it).
        """
        cache = self._online_cache
        if cache is None or self._online_cache_epoch != self._online_epoch:
            if self.churn is not None:
                cache = self.churn.online_nodes()
            else:
                cache = [node.node_id for node in self.nodes if node.online]
            self._online_cache = cache
            self._online_cache_epoch = self._online_epoch
        return list(cache)

    def _online_array(self, online_ids: Optional[Sequence[int]]) -> np.ndarray:
        """The online ids as an array; a given list must equal them."""
        current = self.online_ids()
        if online_ids is not None and not np.array_equal(online_ids, current):
            raise ProtocolError(
                "online_ids must equal the current online set "
                "(pass the list overlay.online_ids() returns)"
            )
        return np.array(current, dtype=np.int64)

    def owner_of_value(self, value: int) -> Optional[int]:
        """Measurement oracle: owner of a pseudonym value (or None)."""
        return self.arena.pseudonyms.value_owner.get(value)

    def owner_of_address(self, address: Address) -> Optional[int]:
        """Measurement oracle: owner of an endpoint address (or None)."""
        return self._address_owner.get(address)

    @property
    def trust_graph(self) -> FlatSnapshot:
        """The trust graph on nodes ``0..n-1``.

        The nodes' trusted link sets are the one record of the trust
        relation; after :meth:`add_trust_edge` or :meth:`add_node` the
        graph is rebuilt from them on first read.
        """
        version, graph = self._trust_graph
        if version != self._trust_version:
            holders: List[int] = []
            friends: List[int] = []
            for node in self.nodes:
                trusted = sorted(node.links.trusted)
                holders.extend([node.node_id] * len(trusted))
                friends.extend(trusted)
            graph = FlatSnapshot.from_edge_positions(
                np.arange(len(self.nodes), dtype=np.int64),
                np.array(holders, dtype=np.int64),
                np.array(friends, dtype=np.int64),
            )
            self._trust_graph = (self._trust_version, graph)
        return graph

    def snapshot(
        self,
        online_only: bool = True,
        online_ids: Optional[Sequence[int]] = None,
    ) -> FlatSnapshot:
        """The current overlay as an undirected graph.

        Edges are trusted links (both ends online when ``online_only``)
        plus unexpired pseudonym links resolved through the measurement
        registry.  All communication is bidirectional, so links are
        undirected edges regardless of who established them.

        Read from the arena's link columns
        (:meth:`~repro.core.arena.NodeArena.link_edges`) and assembled
        by the same function as :meth:`repro.core.BatchOverlay.snapshot`.
        ``online_ids`` may carry a precomputed :meth:`online_ids` result
        and must then equal the current online set.
        """
        if online_only:
            ids = self._online_array(online_ids)
        else:
            ids = np.arange(len(self.nodes), dtype=np.int64)
        trust = self.trust_graph
        return assemble_snapshot(
            ids,
            len(self.nodes),
            trust.edge_u,
            trust.edge_v,
            self.arena.link_edges(self.sim.now),
        )

    snapshot_fast = snapshot  # the older spelling, kept for callers

    def analysis(self, online_only: bool = True) -> SnapshotAnalysis:
        """Metric kernels over the current :meth:`snapshot`; the same
        call as :meth:`repro.core.BatchOverlay.analysis`."""
        return SnapshotAnalysis(self.snapshot(online_only=online_only))

    def trust_snapshot(
        self, online_ids: Optional[Sequence[int]] = None
    ) -> FlatSnapshot:
        """The trust graph restricted to online nodes (baseline metric).

        Cached on ``(online epoch, trust version)``: between churn
        transitions the restricted baseline (and hence its component
        labeling, cached by the caller on snapshot identity) is reused
        outright.  ``online_ids`` must equal the current online set
        when given.
        """
        ids = self._online_array(online_ids)
        key = (self._online_epoch, self._trust_version)
        cached = self._trust_snapshot_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        keep = np.zeros(len(self.nodes), dtype=bool)
        keep[ids] = True
        snap = self.trust_graph.induced(keep)
        self._trust_snapshot_cache = (key, snap)
        return snap

    trust_snapshot_fast = trust_snapshot  # the older spelling

    def online_out_degrees(
        self,
        now: Optional[float] = None,
        online_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """``OverlayNode.out_degree(now)`` for every online node, batched.

        Returns an int64 array aligned with the (ascending) online id
        list: trusted degree plus unexpired pseudonym links, including
        links whose pseudonyms cannot be resolved to an owner — exactly
        the per-node method, computed with one bincount.
        """
        if now is None:
            now = self.sim.now
        ids = self._online_array(online_ids)
        row, _, alive = self.arena.link_edges(now)
        trusted = np.fromiter(
            (node.links.trusted_degree for node in self.nodes),
            dtype=np.int64,
            count=len(self.nodes),
        )
        degrees = trusted + np.bincount(row[alive], minlength=len(self.nodes))
        return degrees[ids]

    def stats(self, online_ids: Optional[Sequence[int]] = None) -> OverlayStats:
        """Aggregate cumulative counters.

        ``online_ids`` may carry a precomputed :meth:`online_ids` result.
        """
        stats = OverlayStats(
            time=self.sim.now,
            online_nodes=len(
                self.online_ids() if online_ids is None else online_ids
            ),
            messages_sent=sum(node.counters.messages_sent for node in self.nodes),
            link_replacements=sum(
                node.links.replacements_total for node in self.nodes
            ),
            pseudonyms_created=sum(
                node.counters.pseudonyms_created for node in self.nodes
            ),
        )
        network = getattr(self.link_layer, "network", None)
        if network is not None:
            stats.replays_dropped = network.total_replays_dropped()
            stats.replay_cache_entries = network.total_replay_cache_entries()
            stats.replay_cache_flushes = network.total_replay_flushes()
            stats.circuit_cache_hits = network.circuit_cache_hits
            stats.circuit_cache_misses = network.circuit_cache_misses
        return stats

    def total_online_time(self, node_id: int) -> float:
        """Cumulative online time of ``node_id`` including the open session."""
        node = self.nodes[node_id]
        total = node.counters.online_time
        if node.counters.last_online_at is not None:
            total += self.sim.now - node.counters.last_online_at
        return total
