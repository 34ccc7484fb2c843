"""Round-based batch overlay engine for million-node studies.

The event-driven :class:`~repro.core.protocol.Overlay` simulates every
message with per-node method calls — exact, but bounded to ~10⁴ nodes.
:class:`BatchOverlay` runs the same protocol round-synchronously over
the columnar node plane (:mod:`repro.core.arena`): one shuffle period
per step, with churn transitions, pseudonym expiry, minting, partner
selection, shuffle-set construction, and set absorption each evaluated
for the *whole population* in a handful of numpy passes over the
arena's id arrays.  The per-entry semantics — sampler replacement,
cache replacement, link derivation — are the arena batch kernels,
which ``tests/test_arena.py`` pins against per-row view calls.

Model discretizations (this engine is a scaling companion, not a
byte-identical replica of the event-driven simulator):

* Time advances in whole shuffle periods; churn follows
  :class:`~repro.churn.batch.ShardedChurn` (the same exponential
  model, discretized per round).
* Each participant builds one shuffle set per round and answers every
  exchange with it.  A node receiving several sets absorbs them in a
  deterministic order — its j-th received set is *wave* j — and cache
  membership is judged against the cache as each set arrives.
* Cache eviction drops the oldest entries (the CYCLON rule without the
  just-sent preference).
* Offline nodes keep their state; expired material is dropped eagerly
  rather than lazily on rejoin (the post-rejoin state is identical).
* Online time counts whole rounds: a node online in a round has spent
  one period online (``rounds_online``, which Figure 6's per-node
  message rate divides by).
* Only the paper's slot sampler and the global pseudonym lifetime
  ``lifetime_ratio * T_off`` exist here: a config with
  ``sampler_mode="cache"`` or ``adaptive_lifetime=True`` raises
  :class:`~repro.errors.ConfigError` instead of running the defaults.

Sharding
--------

The population can be partitioned into ``num_shards`` contiguous node
ranges, each advanced by its own :class:`ShardEngine` (private arena,
private RNG streams spawned per shard).  A round is then three phases
in lockstep — a conservative synchronization window of exactly one
shuffle period, the minimum cross-shard message latency:

1. ``begin_round``: churn, expiry, minting, partner selection; emits
   per-destination-shard :class:`PairBatch` notifications.
2. ``build_sets``: every participant (initiator or partner) builds its
   shuffle set; emits :class:`SetBatch` payloads carrying the set
   *columns* (values / expiries / owners) toward remote exchange peers.
3. ``absorb``: deliveries are assembled in a canonical order
   (requests sorted by initiator id, then responses sorted by
   initiator id — exactly the serial engine's delivery order), remote
   pseudonyms are interned into the local table by value, and the
   arena folds every delivery (each receiving row gathered once).

Two functions are the whole driver: :func:`build_engines` builds the
grid's churn plus the engines of a block of shards, and
:func:`advance_round` runs one window over such a block, handing the
batches for shards outside it to an ``exchange`` hook once per hop.
:class:`BatchOverlay` calls both over the whole grid;
:class:`~repro.parallel.shard.ShardedOverlay` is a ``BatchOverlay``
whose workers each call them over their own block.  Observation reads
per-engine parts (:meth:`BatchOverlay._parts`) and combines them once,
wherever the engines live.

The shard grid is *semantic*: digests are a function of
``(config, num_shards)`` and nothing else, so the same grid run
serially in one process or spread over N worker processes is
byte-identical.  ``num_shards=1`` reproduces the historical
single-shard draw sequence exactly.

Everything is deterministic in ``config.seed``: the trust graph, the
churn, the minted values, and every sampling draw come from named
:class:`~repro.rng.RandomStreams` substreams.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig
from ..churn.batch import ShardedChurn
from ..errors import ConfigError, GraphError, ProtocolError
from ..graphs.fastgraph import FlatSnapshot, SnapshotAnalysis
from ..rng import PSEUDONYM_BITS, RandomStreams
from .arena import SAMPLE_MAX_COLS, NodeArena, PseudonymArena, assemble_snapshot

__all__ = [
    "BatchOverlay",
    "PairBatch",
    "SetBatch",
    "ShardEngine",
    "advance_round",
    "build_engines",
    "combine_shard_digests",
    "ring_lattice_csr",
    "shard_ranges",
]


def ring_lattice_csr(
    num_nodes: int, extra_edges_per_node: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """A connected synthetic trust graph as a CSR adjacency.

    A ring (guaranteeing connectivity) plus ``extra_edges_per_node``
    random chords per node on average — degree-concentrated like the
    paper's social graphs are *not*, but structurally adequate for
    scale studies, and generated vectorized so a 10⁶-node graph takes
    milliseconds, not the minutes a networkx generator would.

    Returns ``(indptr, indices)`` with ascending neighbor lists, as
    :meth:`~repro.graphs.fastgraph.FlatSnapshot.from_edge_positions`
    assembles every CSR in the package.
    """
    if num_nodes < 3:
        raise GraphError(f"ring_lattice_csr needs >= 3 nodes, got {num_nodes}")
    if extra_edges_per_node < 0:
        raise GraphError("extra_edges_per_node must be non-negative")
    ring_u = np.arange(num_nodes, dtype=np.int64)
    ring_v = (ring_u + 1) % num_nodes
    chords = (num_nodes * extra_edges_per_node) // 2
    chord_u = rng.integers(0, num_nodes, size=chords, dtype=np.int64)
    chord_v = rng.integers(0, num_nodes, size=chords, dtype=np.int64)
    keep = chord_u != chord_v
    lattice = FlatSnapshot.from_edge_positions(
        ring_u,
        np.concatenate((ring_u, chord_u[keep])),
        np.concatenate((ring_v, chord_v[keep])),
    )
    return lattice.indptr, lattice.indices


def shard_ranges(total: int, num_shards: int) -> np.ndarray:
    """Balanced contiguous partition boundaries for ``total`` items.

    Returns an int64 array of length ``num_shards + 1`` with
    ``bounds[0] == 0`` and ``bounds[-1] == total``; shard ``s`` owns
    ``[bounds[s], bounds[s+1])``.  The first ``total % num_shards``
    shards get one extra item; when ``num_shards > total`` the tail
    shards are empty.
    """
    if num_shards < 1:
        raise ProtocolError(f"num_shards must be >= 1, got {num_shards}")
    if total < 0:
        raise ProtocolError(f"total must be non-negative, got {total}")
    counts = np.full(num_shards, total // num_shards, dtype=np.int64)
    counts[: total % num_shards] += 1
    return np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))


def shard_of(bounds: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Shard index of every global node id under ``bounds``."""
    return np.searchsorted(bounds, nodes, side="right") - 1


def shard_stream(
    seed: int, shard_id: int, num_shards: int, name: str
) -> np.random.Generator:
    """The named private stream of one shard.

    With ``num_shards == 1`` this is the historical ``("batch", name)``
    substream, keeping the single-shard engine byte-identical to the
    pre-shard one; otherwise each shard spawns its own independent
    stream family via ``RandomStreams.spawn(("batch-shard", shard_id))``
    so the draw sequence depends only on the shard grid, never on which
    process hosts the shard.
    """
    streams = RandomStreams(seed)
    if num_shards == 1:
        return streams.substream("batch", name)
    return streams.spawn("batch-shard", shard_id).substream(name)


def default_trust_csr(
    config: SystemConfig, extra_edges_per_node: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``build`` constructors' trust graph: a seeded ring lattice."""
    return ring_lattice_csr(
        config.num_nodes,
        extra_edges_per_node,
        RandomStreams(config.seed).substream("batch", "trust-graph"),
    )


def check_batch_inputs(
    config: SystemConfig, trusted_indptr: np.ndarray, trusted_indices: np.ndarray
) -> None:
    """Reject a config the engine cannot run, or a malformed trust CSR.

    ``config`` must ask for neither the cache sampler nor adaptive
    lifetimes (see the module's discretizations), nor a cache wider
    than :meth:`NodeArena.sample_cache` ranks.  The CSR must be
    ``config.num_nodes`` rows: ``trusted_indptr`` starts at 0, never
    decreases and ends at ``len(trusted_indices)``, and every index
    names a node.  O(E); symmetry is the caller's to keep.
    """
    if config.sampler_mode != "slots":
        raise ConfigError(
            "the batch engine has only the slot sampler, got "
            f"sampler_mode={config.sampler_mode!r}"
        )
    if config.adaptive_lifetime:
        raise ConfigError(
            "the batch engine has no per-node lifetimes, got "
            f"adaptive_lifetime={config.adaptive_lifetime!r}"
        )
    if config.cache_size > SAMPLE_MAX_COLS:
        raise ConfigError(
            f"the batch engine samples caches of at most {SAMPLE_MAX_COLS} "
            f"entries, got cache_size={config.cache_size}"
        )
    num_nodes = config.num_nodes
    indptr = np.asarray(trusted_indptr)
    indices = np.asarray(trusted_indices)
    if len(indptr) != num_nodes + 1:
        raise GraphError(
            f"trusted_indptr covers {len(indptr) - 1} nodes, "
            f"config.num_nodes is {num_nodes}"
        )
    if indptr[0] != 0 or indptr[-1] != len(indices) or (np.diff(indptr) < 0).any():
        raise GraphError(
            "trusted_indptr must start at 0, never decrease and end at "
            f"len(trusted_indices) = {len(indices)}"
        )
    if len(indices) and (indices.min() < 0 or indices.max() >= num_nodes):
        raise GraphError(f"trusted_indices must lie in [0, {num_nodes})")


def _unique_first(
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(values, return_index=True, return_inverse=True)``.

    Without its mergesort: one default argsort, then each run of equal
    values is one distinct value, and its first occurrence is the run's
    smallest index whatever order the sort left the run in.
    """
    order = np.argsort(values)
    ordered = values[order]
    head = np.empty(len(values), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    first = np.minimum.reduceat(order, heads)
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    return ordered[heads], first, inverse


def combine_shard_digests(round_no: int, shard_digests: Sequence[bytes]) -> str:
    """Whole-system digest from per-shard digests in shard-id order."""
    digest = hashlib.sha256()
    digest.update(np.int64(round_no).tobytes())
    for part in shard_digests:
        digest.update(part)
    return digest.hexdigest()


class PairBatch(NamedTuple):
    """Hop-1 exchange notifications from one shard toward one shard.

    ``initiators`` and ``partners`` are parallel global-id arrays,
    ascending in initiator id; every partner lives in the receiving
    shard.
    """

    src_shard: int
    initiators: np.ndarray
    partners: np.ndarray


class SetBatch(NamedTuple):
    """Hop-2 shuffle-set payloads from one shard toward one shard.

    One row per exchange; ``kind`` is ``"request"`` (initiators' sets,
    delivered to the partners' shard) or ``"response"`` (partners'
    sets, delivered back to the initiators' shard).  The set travels as
    columns — ``values`` (int64, -1 padding), ``expires`` (float64,
    -inf padding), ``owners`` (int64, -1 padding) — because pseudonym
    *ids* are arena-local; the receiver re-interns by value.
    """

    src_shard: int
    kind: str
    initiators: np.ndarray
    partners: np.ndarray
    values: np.ndarray
    expires: np.ndarray
    owners: np.ndarray


class ShardEngine:
    """One contiguous node range of a (possibly sharded) overlay run.

    Owns a private :class:`~repro.core.arena.NodeArena` over its local
    rows, the shard's slice of the trust CSR (local ``indptr``, global
    neighbor ids), and the shard's private RNG streams.  The round is
    split into the three lockstep phases (:meth:`begin_round`,
    :meth:`build_sets`, :meth:`absorb`) so the same engine code runs
    under the serial in-process driver (:class:`BatchOverlay`) and the
    multiprocess one (:class:`~repro.parallel.shard.ShardedOverlay`) —
    equality between the two is structural, not tested-into-existence.

    ``global_online`` is the *whole population's* online mask (churn is
    replicated per process — every shard's model is one uniform draw
    per node per round); the engine keeps a view of its own slice and
    reads the full mask only for partner reachability.
    ``sampler_sizes`` is likewise the population's per-node ``S``; the
    engine registers its own rows'.
    """

    __slots__ = (
        "config",
        "shard_id",
        "num_shards",
        "bounds",
        "lo",
        "hi",
        "size",
        "arena",
        "own_ids",
        "online",
        "counters",
        "trust_lo",
        "trust_hi",
        "trusted_deg",
        "sent_by_node",
        "replaced_by_node",
        "rounds_online",
        "_global_online",
        "_mint_rng",
        "_protocol_rng",
        "_sets",
        "_position",
        "_initiators",
        "_partners",
        "_in_pairs",
        "_lookup_values",
        "_lookup_pids",
        "_interned",
    )

    def __init__(
        self,
        config: SystemConfig,
        shard_id: int,
        bounds: np.ndarray,
        sampler_sizes: np.ndarray,
        trusted_indptr: np.ndarray,
        trusted_indices: np.ndarray,
        global_online: np.ndarray,
    ) -> None:
        self.config = config
        self.shard_id = shard_id
        self.num_shards = len(bounds) - 1
        self.bounds = bounds
        self.lo = int(bounds[shard_id])
        self.hi = int(bounds[shard_id + 1])
        self.size = self.hi - self.lo
        self._global_online = global_online
        self.online = global_online[self.lo : self.hi]
        self._mint_rng = shard_stream(
            config.seed, shard_id, self.num_shards, "mint"
        )
        self._protocol_rng = shard_stream(
            config.seed, shard_id, self.num_shards, "protocol"
        )
        self.arena = NodeArena(
            PseudonymArena(chunk=max(4096, self.size)),
            node_chunk=max(1, self.size),
        )
        self.arena.register_batch(
            self.size, sampler_sizes[self.lo : self.hi], config.cache_size
        )
        # Immutable per-slot reference values (paper Section III-D2) —
        # drawn once, whole shard at a time, as wide as its widest row
        # (columns past a row's ``slot_n`` are never read).  Without
        # them every slot would share reference 0 and collapse onto one
        # pseudonym.
        width = self.arena.slot_cols
        if width and self.size:
            self.arena.slot_refs[: self.size, :width] = shard_stream(
                config.seed, shard_id, self.num_shards, "slot-refs"
            ).integers(
                0,
                1 << PSEUDONYM_BITS,
                size=(self.size, width),
                dtype=np.int64,
            )
        # The shard's CSR slice: local row offsets, GLOBAL neighbor ids.
        row_lo = int(trusted_indptr[self.lo])
        row_hi = int(trusted_indptr[self.hi])
        self.arena.set_trusted_csr(
            trusted_indptr[self.lo : self.hi + 1] - row_lo,
            trusted_indices[row_lo:row_hi],
        )
        self.trusted_deg = np.diff(self.arena.trusted_indptr)
        # Undirected trusted edge list (lo < hi, global) for snapshots.
        src = np.repeat(
            np.arange(self.lo, self.hi, dtype=np.int64), self.trusted_deg
        )
        forward = self.arena.trusted_indices > src
        self.trust_lo = src[forward]
        self.trust_hi = self.arena.trusted_indices[forward]
        self.own_ids = np.full(self.size, -1, dtype=np.int64)
        # Per-node counters, observation only (outside the digest).
        # int32 holds 2^31 messages a node, far past any run.
        self.sent_by_node = np.zeros(self.size, dtype=np.int32)
        self.replaced_by_node = np.zeros(self.size, dtype=np.int32)
        self.rounds_online = np.zeros(self.size, dtype=np.int32)
        self.counters: Dict[str, int] = {
            "messages_sent": 0,
            "exchanges": 0,
            "sets_absorbed": 0,
            "pseudonyms_created": 0,
            "link_additions": 0,
            "link_removals": 0,
        }
        self._sets = np.zeros((0, 0), dtype=np.int32)
        self._position = np.zeros(0, dtype=np.int64)
        self._initiators = np.zeros(0, dtype=np.int64)
        self._partners = np.zeros(0, dtype=np.int64)
        self._in_pairs: List[PairBatch] = []
        self._lookup_values: Optional[np.ndarray] = None
        self._lookup_pids: Optional[np.ndarray] = None
        self._interned: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # round phases
    # ------------------------------------------------------------------

    def begin_round(self, now: float) -> Dict[int, PairBatch]:
        """Phase 1: expiry, minting, partner selection.

        Returns exchange notifications keyed by the partner's shard
        (this shard included).  Churn has already been stepped by the
        driver — the global online mask is current.
        """
        self._in_pairs = []
        self._lookup_values = None
        self._lookup_pids = None
        self._interned = []
        if self.size == 0:
            self._initiators = np.zeros(0, dtype=np.int64)
            self._partners = np.zeros(0, dtype=np.int64)
            return {}
        self.rounds_online += self.online
        arena = self.arena
        # Expiry purge: slots and caches, then links for every row whose
        # slots changed (the legacy _expire_state ordering — link
        # refresh happens before partner selection).
        slot_dirty, _ = arena.batch_expire(now)
        self._refresh_links(slot_dirty)
        self._mint_due(now)
        initiators, partners = self._pick_partners()
        self.counters["exchanges"] += len(initiators)
        # Responses are messages too (one per reachable request).
        self.counters["messages_sent"] += len(initiators)
        self._initiators = initiators
        self._partners = partners
        out: Dict[int, PairBatch] = {}
        dst_shards = shard_of(self.bounds, partners)
        for dst in np.flatnonzero(np.bincount(dst_shards)):
            sel = dst_shards == dst
            out[int(dst)] = PairBatch(
                self.shard_id, initiators[sel], partners[sel]
            )
        return out

    def build_sets(
        self, pairs_in: List[PairBatch], now: float
    ) -> Dict[int, List[SetBatch]]:
        """Phase 2: build every participant's shuffle set.

        ``pairs_in`` holds the exchange notifications whose partner is
        local (this shard's own included); arrival order does not
        matter — batches are re-sorted by source shard.  Returns set
        payloads keyed by destination shard for every exchange with a
        remote peer.
        """
        self._in_pairs = sorted(pairs_in, key=lambda batch: batch.src_shard)
        if self.size == 0:
            return {}
        arena = self.arena
        involved = np.zeros(self.size, dtype=bool)
        involved[self._initiators - self.lo] = True
        for batch in self._in_pairs:
            involved[batch.partners - self.lo] = True
            # Each partner answers its request.
            self.sent_by_node += np.bincount(
                batch.partners - self.lo, minlength=self.size
            )
        participants = np.flatnonzero(involved)
        if len(participants) == 0:
            self._sets = np.zeros(
                (0, self.config.shuffle_length), dtype=np.int32
            )
            self._position = np.full(self.size, -1, dtype=np.int64)
            return {}
        # One shuffle set per participant: own + l-1 distinct cache
        # picks.  The sets hold a refcount on every entry for the
        # duration of the round, so an entry evicted mid-wave stays
        # readable — in the real protocol the pseudonym travels inside
        # the message, independent of the sender's later cache state.
        length = self.config.shuffle_length
        keys = self._protocol_rng.random((len(participants), arena.cache_cols))
        picks = arena.sample_cache(participants, length - 1, keys)
        sets = np.concatenate(
            (self.own_ids[participants][:, None].astype(np.int32), picks),
            axis=1,
        )
        arena.pseudonyms.acquire_batch(sets[sets >= 0])
        position = np.full(self.size, -1, dtype=np.int64)
        position[participants] = np.arange(len(participants), dtype=np.int64)
        self._sets = sets
        self._position = position
        out: Dict[int, List[SetBatch]] = {}
        # Responses: local partners' sets travel back to each remote
        # initiator's shard.
        for batch in self._in_pairs:
            if batch.src_shard == self.shard_id:
                continue
            rows = batch.partners - self.lo
            values, expires, owners = self._set_columns(rows)
            out.setdefault(batch.src_shard, []).append(
                SetBatch(
                    self.shard_id,
                    "response",
                    batch.initiators,
                    batch.partners,
                    values,
                    expires,
                    owners,
                )
            )
        # Requests: local initiators' sets travel to each remote
        # partner's shard.
        dst_shards = shard_of(self.bounds, self._partners)
        for dst in np.flatnonzero(np.bincount(dst_shards)):
            if dst == self.shard_id:
                continue
            sel = dst_shards == dst
            rows = self._initiators[sel] - self.lo
            values, expires, owners = self._set_columns(rows)
            out.setdefault(int(dst), []).append(
                SetBatch(
                    self.shard_id,
                    "request",
                    self._initiators[sel],
                    self._partners[sel],
                    values,
                    expires,
                    owners,
                )
            )
        return out

    def absorb(self, sets_in: List[SetBatch], now: float) -> None:
        """Phase 3: fold every delivery in the canonical serial order.

        Deliveries are assembled requests-first (sorted by initiator
        id) then responses (sorted by initiator id) — exactly the
        serial engine's ``concat((partners, initiators))`` delivery
        order — so the fold (:meth:`NodeArena.batch_absorb`: a
        destination's j-th set is its wave j; expired entries and the
        destination's own pseudonym are dropped) is byte-identical
        regardless of how the work was sharded.  Remote payloads are
        interned into the local pseudonym table by value first.
        """
        if self.size == 0:
            return
        sets_in = sorted(sets_in, key=lambda batch: batch.src_shard)
        # Requests: deliveries to local partners.
        req_dst: List[np.ndarray] = []
        req_init: List[np.ndarray] = []
        req_cands: List[np.ndarray] = []
        for batch in self._in_pairs:
            if batch.src_shard != self.shard_id:
                continue
            req_dst.append(batch.partners - self.lo)
            req_init.append(batch.initiators)
            req_cands.append(
                self._sets[self._position[batch.initiators - self.lo]]
            )
        for batch in sets_in:
            if batch.kind != "request":
                continue
            req_dst.append(batch.partners - self.lo)
            req_init.append(batch.initiators)
            req_cands.append(
                self._intern(batch.values, batch.expires, batch.owners)
            )
        # Responses: deliveries back to local initiators.
        resp_init: List[np.ndarray] = []
        resp_cands: List[np.ndarray] = []
        local_partner = shard_of(self.bounds, self._partners) == self.shard_id
        resp_init.append(self._initiators[local_partner])
        resp_cands.append(
            self._sets[self._position[self._partners[local_partner] - self.lo]]
        )
        for batch in sets_in:
            if batch.kind != "response":
                continue
            resp_init.append(batch.initiators)
            resp_cands.append(
                self._intern(batch.values, batch.expires, batch.owners)
            )
        width = self.config.shuffle_length
        empty_rows = np.zeros(0, dtype=np.int64)
        empty_cands = np.zeros((0, width), dtype=np.int32)
        r_dst = np.concatenate(req_dst) if req_dst else empty_rows
        r_init = np.concatenate(req_init) if req_init else empty_rows
        r_cands = np.concatenate(req_cands) if req_cands else empty_cands
        # Initiator ids are unique (one exchange per online node), so
        # the default sort is a stable one.
        r_order = np.argsort(r_init)
        p_init = np.concatenate(resp_init) if resp_init else empty_rows
        p_cands = np.concatenate(resp_cands) if resp_cands else empty_cands
        p_order = np.argsort(p_init)
        dst = np.concatenate((r_dst[r_order], p_init[p_order] - self.lo))
        cands = np.concatenate((r_cands[r_order], p_cands[p_order]))
        self.counters["sets_absorbed"] += len(dst)
        self._refresh_links(
            self.arena.batch_absorb(dst, cands, now, self.own_ids[dst])
        )
        # Drop the transient refcounts the shuffle sets held, plus one
        # per interned remote instance, in one release.
        held = self._sets[self._sets >= 0].astype(np.int64)
        self.arena.pseudonyms.release_batch(np.concatenate([held] + self._interned))
        self._interned = []
        self._sets = np.zeros((0, 0), dtype=np.int32)
        self._in_pairs = []

    # ------------------------------------------------------------------
    # phase internals
    # ------------------------------------------------------------------

    def _mint_due(self, now: float) -> None:
        """Mint fresh own pseudonyms for online nodes whose own expired."""
        table = self.arena.pseudonyms
        own = self.own_ids
        safe = np.where(own >= 0, own, 0)
        live = (own >= 0) & (table.expires_at[safe] > now)
        due = np.flatnonzero(self.online & ~live)
        if len(due) == 0:
            return
        stale = own[due]
        table.release_batch(stale[stale >= 0])
        values = self._mint_rng.integers(
            0, 1 << PSEUDONYM_BITS, size=len(due), dtype=np.int64
        )
        expires = np.full(len(due), now + self.config.pseudonym_lifetime)
        own[due] = table.mint_batch(values, expires, self.lo + due)
        self.counters["pseudonyms_created"] += len(due)

    def _refresh_links(self, rows: np.ndarray) -> None:
        if len(rows) == 0:
            return
        added, removed = self.arena.batch_links_from_slots(rows)
        self.replaced_by_node[rows] += removed
        self.counters["link_additions"] += int(added.sum())
        self.counters["link_removals"] += int(removed.sum())

    def _pick_partners(self) -> Tuple[np.ndarray, np.ndarray]:
        """One uniform link choice per online local node.

        Returns ``(initiators, partners)`` as *global* ids.  Each
        online node picks uniformly over trusted + pseudonym links (the
        paper's partner selection); pseudonym links resolve to their
        owner — a global id — through the arena's owner column.
        Exchanges whose partner is offline anywhere in the population
        are dropped requests (still counted as sent).
        """
        arena = self.arena
        size = self.size
        trusted_deg = self.trusted_deg
        link_len = arena.link_len[:size].astype(np.int64)
        total = trusted_deg + link_len
        active = self.online & (total > 0) & (self.own_ids >= 0)
        draws = self._protocol_rng.random(size)
        safe_total = np.maximum(total, 1)
        index = np.minimum(
            (draws * safe_total).astype(np.int64), safe_total - 1
        )
        partner = np.full(size, -1, dtype=np.int64)
        from_trusted = active & (index < trusted_deg)
        rows = np.flatnonzero(from_trusted)
        if len(rows):
            partner[rows] = arena.trusted_indices[
                arena.trusted_indptr[rows] + index[rows]
            ]
        from_links = active & ~from_trusted
        rows = np.flatnonzero(from_links)
        if len(rows):
            cols = index[rows] - trusted_deg[rows]
            pids = arena.link_ids[rows, cols]
            partner[rows] = arena.pseudonyms.owners[pids]
        self.sent_by_node += active
        self.counters["messages_sent"] += int(active.sum())
        global_ids = np.arange(self.lo, self.hi, dtype=np.int64)
        reachable = (
            active
            & (partner >= 0)
            & self._global_online[np.maximum(partner, 0)]
            & (partner != global_ids)
        )
        rows = np.flatnonzero(reachable)
        return global_ids[rows], partner[rows]

    def _set_columns(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A row batch of local shuffle sets as value/expiry/owner columns."""
        table = self.arena.pseudonyms
        pids = self._sets[self._position[rows]]
        valid = pids >= 0
        safe = np.where(valid, pids, 0)
        values = np.where(valid, table.values[safe], -1)
        expires = np.where(valid, table.expires_at[safe], -np.inf)
        owners = np.where(valid, table.owners[safe], -1)
        return values, expires, owners

    def _intern(
        self, values: np.ndarray, expires: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        """Canonicalize remote set columns into local pseudonym ids.

        Values already live in the local table (the destination's own
        pseudonym, cached copies) resolve to the existing id — the
        fold's dedup and own-filter compare ids, so remote copies
        must alias local ones.  Unknown values are minted once per
        distinct value.  Every instance holds one refcount until
        :meth:`absorb` releases it at end of round.
        """
        table = self.arena.pseudonyms
        flat_values = values.ravel()
        out = np.full(flat_values.shape, -1, dtype=np.int64)
        valid = flat_values >= 0
        if not valid.any():
            return out.reshape(values.shape).astype(np.int32)
        # Live values are distinct in the table: a value seen again is
        # interned to its live id, and mints are 63-bit random draws.  So
        # the default sort orders the lookup as a stable one would.
        if self._lookup_values is None:
            live = np.flatnonzero(table.refcounts[: table.capacity] > 0)
            live_values = table.values[live]
            order = np.argsort(live_values)
            self._lookup_values = live_values[order]
            self._lookup_pids = live[order].astype(np.int64)
        uvals, first, inverse = _unique_first(flat_values[valid])
        known = self._lookup_values
        upids = np.full(len(uvals), -1, dtype=np.int64)
        hit = np.zeros(len(uvals), dtype=bool)
        if len(known):
            pos = np.searchsorted(known, uvals)
            in_range = pos < len(known)
            hit[in_range] = known[pos[in_range]] == uvals[in_range]
            upids[hit] = self._lookup_pids[pos[hit]]
        new = ~hit
        minted = np.zeros(0, dtype=np.int64)
        if new.any():
            first_new = first[new]
            minted = table.mint_batch(
                uvals[new],
                expires.ravel()[valid][first_new],
                owners.ravel()[valid][first_new],
            )
            upids[new] = minted
            # The new values are sorted, distinct and absent from the
            # lookup, so inserting them in place keeps it sorted.
            at = np.searchsorted(known, uvals[new])
            self._lookup_values = np.insert(known, at, uvals[new])
            self._lookup_pids = np.insert(self._lookup_pids, at, minted)
        instance_pids = upids[inverse]
        # The instances are the real holders; drop mint_batch's seat.
        table.acquire_batch(instance_pids)
        table.release_batch(minted)
        self._interned.append(instance_pids)
        out[valid] = instance_pids
        return out.reshape(values.shape).astype(np.int32)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def digest_bytes(self) -> bytes:
        """SHA-256 over this shard's protocol state (raw bytes).

        Hashes the shard's online slice, every local node's own
        pseudonym *value*, and the per-row cache/link/slot occupancy
        and stored values — id-free, so it is invariant to how arena
        ids were allocated.
        """
        table = self.arena.pseudonyms
        own = self.own_ids
        own_values = np.where(own >= 0, table.values[np.maximum(own, 0)], -1)
        digest = hashlib.sha256()
        digest.update(np.packbits(self.online).tobytes())
        digest.update(own_values.tobytes())
        self.arena.update_digest(digest, self.size)
        return digest.digest()

    def link_edges(
        self, now: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`NodeArena.link_edges` with global ``(holder, owner, alive)``."""
        row, owner, alive = self.arena.link_edges(now)
        row += self.lo
        return row, owner, alive

    def snapshot_rows(
        self, online_only: bool, now: float
    ) -> Tuple[np.ndarray, ...]:
        """This shard's part of :meth:`BatchOverlay.snapshot`.

        ``(ids, trust_lo, trust_hi, holder, owner, alive)``: the node ids
        the snapshot keeps, the trusted edges, and :meth:`link_edges`.
        """
        if online_only:
            ids = self.online_rows()
        else:
            ids = np.arange(self.lo, self.hi, dtype=np.int64)
        return (ids,) + self.trust_edges() + self.link_edges(now)

    def online_rows(self) -> np.ndarray:
        """Global ids of this shard's online nodes, ascending."""
        return self.lo + np.flatnonzero(self.online)

    def trust_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """This shard's trusted edges as global ``(lo, hi)`` columns."""
        return self.trust_lo, self.trust_hi

    def out_degrees(self, now: float) -> np.ndarray:
        """Every local node's trusted degree plus its links alive at ``now``."""
        row, _, alive = self.arena.link_edges(now)
        return self.trusted_deg + np.bincount(row[alive], minlength=self.size)

    def node_counters(self) -> Tuple[np.ndarray, ...]:
        """``(messages sent, links replaced, rounds online, trusted degree)``."""
        return self.sent_by_node, self.replaced_by_node, self.rounds_online, self.trusted_deg

    def channel_rows(self, now: float) -> Tuple[np.ndarray, ...]:
        """This shard's part of :meth:`BatchOverlay.channel_edges`.

        ``(trusted_deg, trusted_indices, holder, owner, alive)``.
        """
        trusted = (self.trusted_deg, self.arena.trusted_indices)
        return trusted + self.link_edges(now)

    def counter_part(self) -> Tuple[Dict[str, int], int]:
        """``(counters, online count)`` for :meth:`BatchOverlay.stats`."""
        return self.counters, int(self.online.sum())

    def memory_bytes(self) -> int:
        """Deterministic storage accounting for this shard."""
        total = self.arena.memory_bytes()
        total += self.own_ids.nbytes
        total += self.trust_lo.nbytes + self.trust_hi.nbytes
        total += self.trusted_deg.nbytes
        return total + sum(column.nbytes for column in self.node_counters()[:3])


def build_engines(
    config: SystemConfig,
    trusted_indptr: np.ndarray,
    trusted_indices: np.ndarray,
    num_shards: int,
    shards: Sequence[int],
    start_all_online: bool = False,
) -> Tuple[ShardedChurn, List[ShardEngine]]:
    """The whole ``num_shards`` grid's churn, plus the engines of ``shards``.

    Every driver builds here: :class:`BatchOverlay` asks for every
    shard, a sharded worker for its own block.  Churn is always the
    whole grid's (one uniform draw per node per round is cheap, and
    partner reachability reads the population's online mask), so every
    block follows the same trajectory.
    """
    check_batch_inputs(config, trusted_indptr, trusted_indices)
    bounds = shard_ranges(config.num_nodes, num_shards)
    churn = ShardedChurn(
        bounds,
        config.availability,
        config.mean_offline_time,
        [
            shard_stream(config.seed, shard, num_shards, "churn")
            for shard in range(num_shards)
        ],
        start_all_online=start_all_online,
    )
    indptr = np.ascontiguousarray(trusted_indptr, dtype=np.int64)
    indices = np.ascontiguousarray(trusted_indices, dtype=np.int64)
    sampler_sizes = config.sampler_size(np.diff(indptr))
    engines = [
        ShardEngine(
            config, shard, bounds, sampler_sizes, indptr, indices, churn.online
        )
        for shard in shards
    ]
    return churn, engines


def advance_round(
    engines: Sequence[ShardEngine],
    churn: ShardedChurn,
    now: float,
    exchange: Optional[Callable[[str, Dict[int, list]], Dict[int, list]]] = None,
) -> None:
    """One lockstep window over a block of engines, in shard order.

    Churn steps, then ``begin_round``, ``build_sets`` and ``absorb``
    run with one routing hop between each pair.  Batches for shards in
    the block are handed over directly.  When the block is not the
    whole grid, ``exchange(tag, remote) -> routed`` is called once per
    hop (``"pairs"``, then ``"sets"``) with the batches for every other
    shard and returns the block's incoming ones.  Engines re-sort what
    arrives by source shard, so transport order cannot change results.
    """
    churn.step()
    outgoing = [
        {dst: [batch] for dst, batch in engine.begin_round(now).items()}
        for engine in engines
    ]
    pairs = _route(engines, outgoing, "pairs", exchange)
    outgoing = [
        engine.build_sets(pairs[engine.shard_id], now) for engine in engines
    ]
    sets = _route(engines, outgoing, "sets", exchange)
    for engine in engines:
        engine.absorb(sets[engine.shard_id], now)


def _route(
    engines: Sequence[ShardEngine],
    outgoing: List[Dict[int, list]],
    tag: str,
    exchange: Optional[Callable[[str, Dict[int, list]], Dict[int, list]]],
) -> Dict[int, list]:
    """Group per-engine ``{dst: batches}`` by destination shard."""
    routed: Dict[int, list] = {engine.shard_id: [] for engine in engines}
    remote: Dict[int, list] = {}
    for out in outgoing:
        for dst, batches in out.items():
            target = routed if dst in routed else remote
            target.setdefault(dst, []).extend(batches)
    if exchange is not None:
        for dst, batches in exchange(tag, remote).items():
            routed[dst].extend(batches)
    return routed


def _concat(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate(pieces)``, without the copy for a single piece."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


class BatchOverlay:
    """A whole overlay system advanced one shuffle round at a time.

    Parameters
    ----------
    config:
        Protocol parameters; ``num_nodes`` may be millions.  Each
        node's sampler size is ``config.sampler_size`` of its own
        trusted degree, as on the event path.
    trusted_indptr, trusted_indices:
        The trust graph as a symmetric CSR adjacency
        (:func:`ring_lattice_csr`, or any CSR over ``0..n-1``).
    start_all_online:
        Seat every node online instead of the stationary draw.
    num_shards:
        Logical shard-grid size.  The digest is a function of
        ``(config, num_shards)``; ``1`` (the default) reproduces the
        historical single-shard draw sequence exactly, and any other
        grid is byte-identical to the same grid run across worker
        processes by :class:`~repro.parallel.shard.ShardedOverlay`.
    """

    __slots__ = ("config", "churn", "round", "num_shards", "engines", "_trust_edges")

    def __init__(
        self,
        config: SystemConfig,
        trusted_indptr: np.ndarray,
        trusted_indices: np.ndarray,
        start_all_online: bool = False,
        num_shards: int = 1,
    ) -> None:
        self.config = config
        self.num_shards = num_shards
        self._trust_edges: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.churn, self.engines = build_engines(
            config,
            trusted_indptr,
            trusted_indices,
            num_shards,
            range(num_shards),
            start_all_online,
        )
        self.round = 0

    @classmethod
    def build(
        cls,
        config: SystemConfig,
        extra_edges_per_node: int = 4,
        start_all_online: bool = False,
        num_shards: int = 1,
    ) -> "BatchOverlay":
        """Construct over a synthetic ring-lattice trust graph."""
        return cls(
            config,
            *default_trust_csr(config, extra_edges_per_node),
            start_all_online=start_all_online,
            num_shards=num_shards,
        )

    # ------------------------------------------------------------------
    # single-shard compatibility surface
    # ------------------------------------------------------------------

    def _single_engine(self, attribute: str) -> ShardEngine:
        if self.num_shards != 1:
            raise ProtocolError(
                f"BatchOverlay.{attribute} is single-shard only "
                f"(num_shards={self.num_shards}); use overlay.engines[s]"
            )
        return self.engines[0]

    @property
    def arena(self) -> NodeArena:
        """The node arena (single-shard runs; else use ``engines[s]``)."""
        return self._single_engine("arena").arena

    @property
    def own_ids(self) -> np.ndarray:
        """Own-pseudonym ids (single-shard runs; else ``engines[s]``)."""
        return self._single_engine("own_ids").own_ids

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance one shuffle round (all shards, in lockstep)."""
        self.round += 1
        advance_round(self.engines, self.churn, float(self.round))

    def run(self, rounds: int) -> None:
        """Advance ``rounds`` shuffle rounds."""
        for _ in range(rounds):
            self.step()

    # ------------------------------------------------------------------
    # observation: per-engine parts, combined once
    # ------------------------------------------------------------------

    def _parts(self, method: str, *args: Any) -> List[Any]:
        """``engine.method(*args)`` for every engine, in shard order."""
        return [getattr(engine, method)(*args) for engine in self.engines]

    @property
    def num_nodes(self) -> int:
        """Population size."""
        return self.config.num_nodes

    def substream(self, *key) -> np.random.Generator:
        """The same ``"aux"`` stream as :meth:`Overlay.substream`."""
        return RandomStreams(self.config.seed).substream("aux", *key)

    def online_ids(self) -> np.ndarray:
        """Ids of currently online nodes, ascending."""
        return _concat(self._parts("online_rows"))

    def snapshot(
        self, online_only: bool = True, online_ids: Optional[Sequence[int]] = None
    ) -> FlatSnapshot:
        """The current overlay as a :class:`FlatSnapshot`.

        Trusted edges with both ends included plus unexpired pseudonym
        links resolved through the arenas' owner columns — the batch
        analogue of :meth:`Overlay.snapshot`.  Per-shard edge
        lists concatenate in shard order, which is global row order.
        ``online_ids``, if given, must equal the current online set,
        which the engines list themselves.
        """
        ids, trust_lo, trust_hi, holder, owner, alive = (
            _concat(column)
            for column in zip(
                *self._parts("snapshot_rows", online_only, float(self.round))
            )
        )
        return assemble_snapshot(
            ids, self.config.num_nodes, trust_lo, trust_hi, (holder, owner, alive)
        )

    def trust_snapshot(self, online_ids: Optional[Sequence[int]] = None) -> FlatSnapshot:
        """The trust graph restricted to online nodes (baseline metric)."""
        ids = self.online_ids() if online_ids is None else np.asarray(online_ids)
        if self._trust_edges is None:  # they never change: gather them once
            lo, hi = (_concat(column) for column in zip(*self._parts("trust_edges")))
            self._trust_edges = (lo, hi)
        lo, hi = self._trust_edges
        none = np.zeros(0, dtype=np.int64)
        return assemble_snapshot(ids, self.num_nodes, lo, hi, (none, none, none > 0))

    def out_degrees(self, now: Optional[float] = None) -> np.ndarray:
        """Every node's trusted degree plus its links alive at ``now``."""
        now = float(self.round) if now is None else now
        return _concat(self._parts("out_degrees", now))

    def node_counters(self) -> Dict[str, np.ndarray]:
        """Per-node cumulative counters (copies), indexed by node id;
        ``online_time`` counts whole rounds online."""
        names = ("messages_sent", "link_replacements", "online_time", "trust_degree")
        columns = zip(*self._parts("node_counters"))
        return dict(zip(names, map(np.concatenate, columns)))

    def channel_edges(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dissemination-plane channel export hook.

        Returns ``(trusted_indptr, trusted_indices, holder, owner)``:
        the global trusted CSR plus every live pseudonym link as a
        resolved ``(holder, owner)`` pair — the arena-plane analogue of
        the object plane's channel semantics, where each live link
        yields an "out" channel holder→owner and a "reverse" channel
        owner→holder (see
        :meth:`repro.dissemination.batch.ChannelSnapshot.from_batch_overlay`).
        Self-links and links whose owner is unresolved are dropped,
        matching :func:`repro.dissemination.base.build_channel_lists`.
        ``holder`` is ascending and each holder's links come in
        link-table order: every shard lists its rows that way
        (:meth:`~repro.core.arena.NodeArena.link_edges`) and the shard
        parts concatenate in shard order.  The snapshot builder relies
        on it and refuses an export that breaks it.  With one engine
        the trusted arrays are views of its own state: read them, do
        not write them.
        """
        degrees, indices, holder, owner, alive = (
            _concat(column)
            for column in zip(*self._parts("channel_rows", float(self.round)))
        )
        indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(degrees, dtype=np.int64))
        )
        keep = alive & (owner >= 0) & (owner != holder)
        return indptr, indices, holder[keep], owner[keep]

    def analysis(self, online_only: bool = True) -> SnapshotAnalysis:
        """Metric kernels over the current snapshot."""
        return SnapshotAnalysis(self.snapshot(online_only=online_only))

    def mean_out_degree(self) -> float:
        """Mean overlay degree over online nodes (trusted + live links)."""
        degrees = self.out_degrees()[self.online_ids()]
        return float(degrees.mean()) if len(degrees) else 0.0

    def memory_bytes(self) -> int:
        """Deterministic storage accounting of the *logical* state.

        Every shard engine plus one global online mask, wherever the
        engines live (workers also replicate the churn grid and the
        trust CSR pages; benchmarks measure RSS separately).
        """
        return sum(self._parts("memory_bytes")) + self.config.num_nodes

    def state_digest(self) -> str:
        """SHA-256 over the protocol state (determinism evidence).

        Per-shard digests (online mask, own pseudonym values, per-row
        cache/link/slot occupancy and stored values) combined in
        shard-id order — a function of ``(config, num_shards)`` only,
        identical however many processes hosted the shards.
        """
        return combine_shard_digests(self.round, self._parts("digest_bytes"))

    def stats(self) -> Dict[str, int]:
        """Cumulative counters plus the current online count."""
        merged: Dict[str, int] = {}
        online = 0
        for counters, count in self._parts("counter_part"):
            for key, value in counters.items():
                merged[key] = merged.get(key, 0) + value
            online += count
        merged["online_nodes"] = online
        merged["round"] = self.round
        return merged

    @property
    def counters(self) -> Dict[str, int]:
        """Cumulative protocol counters summed over all shards."""
        merged = self.stats()
        del merged["online_nodes"], merged["round"]
        return merged
