"""Struct-of-arrays node plane: columnar per-node protocol state.

The paper (Section III-D) gives a node one piece of state: a pseudonym
cache, a list of Brahms-style sampler slots, and the link set derived
from them.  Boxing that state per node (a dataclass per pseudonym, a
dict per cache and link table) caps practical runs at ~10⁴ nodes, so
this module interns the heavy values once, keeps the hot state in
preallocated id-indexed numpy arrays, and hands the protocol *lazy
object views* over single rows:

* :class:`PseudonymArena` — the interning table.  Each distinct
  pseudonym is assigned a dense ``uint32``-sized id; its value, expiry,
  and owner live in parallel columns.
  Ids are reference-counted by their holders (cache rows, sampler
  slots, link rows) and returned to a free list when the last holder
  drops them, so long churned runs reuse ids instead of growing the
  table without bound.  Storage grows in fixed chunks.
* :class:`NodeArena` — per-node rows over interned ids: link sets,
  cache entries (insertion-ordered), and sampler-slot state
  (references, distances, expiries, occupants) as 2-D arrays with one
  row per node.  It also carries the vectorized **batch kernels**
  (:meth:`~NodeArena.batch_absorb`,
  :meth:`~NodeArena.batch_links_from_slots`,
  :meth:`~NodeArena.batch_expire`) that fold whole populations of
  shuffle exchanges, slot updates, and churn transitions: every
  receiving row is gathered once per round, folded in place — Python
  loops over the short axes (slots, cache columns, set positions),
  numpy passes along the rows — and scattered once.  They are the
  engine behind :class:`repro.core.batch.BatchOverlay` and the
  10⁶-node run in ``benchmarks/bench_scale_million.py``.
* :class:`ArenaLinkSet` / :class:`ArenaCache` / :class:`ArenaSlots` —
  one node's ``n.links``, cache and ``n.L`` as views over one arena
  row.  :class:`~repro.core.node.OverlayNode` holds one of each; the
  event-driven protocol, metrics, attacks, and privlink layers see
  plain :class:`Pseudonym` objects.  Their rng draw order, insertion
  and eviction order, and tie-breaks are pinned by the golden hashes
  in ``tests/test_determinism.py``.

See ``docs/node_plane.md`` for the layout, the interning rules, and the
ordering contract.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ProtocolError
from ..graphs.fastgraph import FlatSnapshot
from ..privlink import Address
from ..rng import PSEUDONYM_BITS, random_bits
from .links import LinkTarget
from .pseudonym import Pseudonym

__all__ = [
    "PseudonymArena",
    "NodeArena",
    "ArenaLinkSet",
    "ArenaCache",
    "ArenaSlots",
]

#: Sentinel distance of an empty sampler slot.
_EMPTY_DISTANCE = np.iinfo(np.int64).max

_NO_IDS = np.zeros(0, dtype=np.int64)

#: Rows per block of the batch kernels' working state.  The O(N)
#: kernels (:meth:`NodeArena.batch_absorb`, :meth:`NodeArena.sample_cache`,
#: :meth:`NodeArena.update_digest`) walk their rows this many at a time,
#: so their scratch is O(block) rather than O(N) and a block's
#: transposed columns stay within a core's L2 (``docs/node_plane.md``).
BLOCK_ROWS = 8192

#: Widest cache :meth:`NodeArena.sample_cache` ranks.  Its sort key packs
#: a 53-bit random key above ``bit_length(cache_cols - 1)`` column bits
#: into one uint64, so at most 2¹¹ columns fit.
SAMPLE_MAX_COLS = 2048

_DEAD_KEY = np.iinfo(np.uint64).max


def _wave_major(dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order deliveries so that every wave is a prefix of the receivers.

    Wave w is the (w+1)-th set of every row that receives that many.
    Ranking the distinct receiving rows by how many sets they get (most
    first, ties by row) makes wave w's receivers exactly
    ``rows[:sizes[w]]``, and laying the deliveries out wave by wave,
    rows in rank order inside a wave, makes its sets one contiguous
    block.  Returns ``(rows, order, sizes)``: the ranked rows, the
    delivery indices in wave-major order, and the non-increasing wave
    sizes.  A row's deliveries keep their relative order.
    """
    count = len(dst)
    if count == 0:
        return _NO_IDS, _NO_IDS, _NO_IDS
    # Unique keys, so the fast default sort is a stable one.
    keys = dst.astype(np.int64) * count + np.arange(count)
    keys.sort()
    by_row = keys % count
    sorted_dst = keys // count
    first = np.flatnonzero(
        np.concatenate(([True], sorted_dst[1:] != sorted_dst[:-1]))
    )
    per_row = np.diff(np.append(first, count))
    ranked = _most_first(per_row)
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(len(ranked))
    sizes = len(first) - np.cumsum(np.bincount(per_row))[:-1]
    starts = np.cumsum(sizes) - sizes
    wave = np.arange(count) - np.repeat(first, per_row)
    order = np.empty(count, dtype=np.int64)
    order[starts[wave] + np.repeat(rank, per_row)] = by_row
    return sorted_dst[first][ranked], order, sizes


def _most_first(counts: np.ndarray) -> np.ndarray:
    """``np.argsort(-counts, kind="stable")`` for non-negative ``counts``.

    Sorts ``max - counts`` in the smallest unsigned dtype that holds it:
    numpy radix-sorts 8- and 16-bit keys, and the order is the same.
    """
    most = counts.max(initial=0)
    return np.argsort(
        (most - counts).astype(np.min_scalar_type(most)), kind="stable"
    )


def _drop_repeats(cells: np.ndarray) -> None:
    """Set to -1 every ``cells[j, r]`` that repeats a ``cells[i < j, r]``."""
    for j in range(1, len(cells)):
        repeat = cells[j] == cells[0]
        for i in range(1, j):
            repeat |= cells[j] == cells[i]
        np.putmask(cells[j], repeat, -1)


def _append(
    table: np.ndarray, end: np.ndarray, cells: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """Append ``cells[j, r]`` where ``keep[j, r]`` to column r, in j order.

    Column r of ``table`` is filled up to row ``end[r]``; returns the new
    ends.  A skipped cell lands where the next kept one overwrites it
    and the last such cell is cleared afterwards, so ``table`` needs
    one spare row below the longest column this can produce.
    """
    lane = np.arange(table.shape[1])
    end = end.copy()
    for j in range(len(cells)):
        table[end, lane] = cells[j]
        end += keep[j]
    table[end, lane] = -1
    return end


def _transposed(array: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``array[rows].T`` as a contiguous ``(columns, len(rows))`` array."""
    out = np.empty((array.shape[1], len(rows)), dtype=array.dtype)
    for column in range(array.shape[1]):
        out[column] = array[rows, column]
    return out


def _grown(array: np.ndarray, rows: int, cols: int, fill) -> np.ndarray:
    """Copy ``array`` into a fresh ``(rows, cols)`` array padded with fill."""
    grown = np.full((rows, cols), fill, dtype=array.dtype)
    if array.size:
        grown[: array.shape[0], : array.shape[1]] = array
    return grown


class PseudonymArena:
    """The interning table: one dense id per distinct pseudonym.

    Columns are preallocated in ``chunk``-sized blocks.  Every id is
    reference-counted by its holders (one count per cache row, sampler
    slot, link row, or batch-engine ``own`` slot that stores it); when
    the count drops to zero the id is pushed onto the free list and
    reused by a later :meth:`intern` or :meth:`mint_batch`, which is
    what keeps long churned runs from growing the table without bound.

    Interned *objects* (the view plane) keep their :class:`Pseudonym`
    in :attr:`objects` so views can hand the exact instance back.
    Batch-minted ids (:meth:`mint_batch`) never materialize objects;
    :meth:`view` builds one lazily if somebody asks.

    :attr:`value_owner` is the omniscient measurement registry of the
    view plane: the overlay records every pseudonym value there when it
    is minted, before it can circulate, and :meth:`intern` copies the
    owner into the :attr:`owners` column.
    """

    __slots__ = (
        "chunk",
        "values",
        "expires_at",
        "owners",
        "value_owner",
        "refcounts",
        "objects",
        "grows",
        "total_interned",
        "_ids",
        "_free",
    )

    def __init__(self, chunk: int = 4096) -> None:
        if chunk < 1:
            raise ProtocolError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk
        self.values = np.zeros(chunk, dtype=np.int64)
        self.expires_at = np.full(chunk, -math.inf, dtype=np.float64)
        #: Owner node id of every live id (-1 when the owner is unknown).
        self.owners = np.full(chunk, -1, dtype=np.int64)
        #: Pseudonym value -> owner node id, read by :meth:`intern`.
        self.value_owner: Dict[int, int] = {}
        self.refcounts = np.zeros(chunk, dtype=np.int64)
        self.objects: List[Optional[Pseudonym]] = [None] * chunk
        #: Number of chunk growths (introspection for tests).
        self.grows = 0
        #: Total ids ever handed out (reuse makes this exceed capacity).
        self.total_interned = 0
        self._ids: Dict[Pseudonym, int] = {}
        # Free ids, popped from the tail: keep the list descending so
        # fresh tables allocate 0, 1, 2, ...
        self._free: List[int] = list(range(chunk - 1, -1, -1))

    @property
    def capacity(self) -> int:
        """Allocated id slots (grows by :attr:`chunk`)."""
        return len(self.values)

    @property
    def live(self) -> int:
        """Ids currently held by at least one holder."""
        return len(self.values) - len(self._free)

    def _grow(self) -> None:
        old = self.capacity
        new = old + self.chunk
        for name in ("values", "refcounts", "owners"):
            grown = np.zeros(new, dtype=getattr(self, name).dtype)
            grown[:old] = getattr(self, name)
            if name == "owners":
                grown[old:] = -1
            setattr(self, name, grown)
        expires = np.full(new, -math.inf, dtype=np.float64)
        expires[:old] = self.expires_at
        self.expires_at = expires
        self.objects.extend([None] * self.chunk)
        self._free.extend(range(new - 1, old - 1, -1))
        self.grows += 1

    def _allocate(self) -> int:
        if not self._free:
            self._grow()
        self.total_interned += 1
        return self._free.pop()

    def intern(self, pseudonym: Pseudonym) -> int:
        """Intern one pseudonym object; the caller holds one reference.

        Equal pseudonyms share an id (so id equality is object
        equality); every additional holder bumps the refcount.  A new
        id's owner comes from :attr:`value_owner` (-1 if unregistered).
        """
        pid = self._ids.get(pseudonym)
        if pid is not None:
            self.refcounts[pid] += 1
            return pid
        pid = self._allocate()
        self.values[pid] = pseudonym.value
        self.expires_at[pid] = pseudonym.expires_at
        self.owners[pid] = self.value_owner.get(pseudonym.value, -1)
        self.refcounts[pid] = 1
        self.objects[pid] = pseudonym
        self._ids[pseudonym] = pid
        return pid

    def acquire(self, pid: int) -> int:
        """Add one holder to an already-interned id."""
        self.refcounts[pid] += 1
        return pid

    def release(self, pid: int) -> None:
        """Drop one holder; frees the id when the last holder leaves."""
        count = int(self.refcounts[pid]) - 1
        if count < 0:
            raise ProtocolError(f"pseudonym id {pid} released with no holder")
        self.refcounts[pid] = count
        if count > 0:
            return
        obj = self.objects[pid]
        if obj is not None:
            del self._ids[obj]
            self.objects[pid] = None
        self.expires_at[pid] = -math.inf
        self.owners[pid] = -1
        self._free.append(pid)

    def acquire_batch(self, pids: np.ndarray) -> None:
        """Vectorized :meth:`acquire` for a flat id array (repeats ok).

        A kernel that both acquires and releases in one step acquires
        first: an id whose only other holder is about to let go must not
        touch zero — and the free list — on its way to a new holder.
        """
        np.add.at(self.refcounts, pids, 1)

    def release_batch(self, pids: np.ndarray) -> None:
        """Vectorized :meth:`release` for a flat id array (repeats ok)."""
        if len(pids) == 0:
            return
        counts = np.bincount(pids, minlength=self.capacity)
        left = self.refcounts - counts
        if (left < 0).any():
            pid = int(np.flatnonzero(left < 0)[0])
            raise ProtocolError(
                f"pseudonym id {pid} released more often than it is held"
            )
        self.refcounts = left
        freed = np.flatnonzero((left == 0) & (counts > 0))
        if len(freed) == 0:
            return
        if self._ids:  # batch-minted tables never materialize objects
            for pid in freed.tolist():
                obj = self.objects[pid]
                if obj is not None:
                    del self._ids[obj]
                    self.objects[pid] = None
        self.expires_at[freed] = -math.inf
        self.owners[freed] = -1
        self._free.extend(freed.tolist())

    def mint_batch(
        self, values: np.ndarray, expires: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        """Allocate ids for a batch of freshly minted pseudonyms.

        No objects are materialized; each id starts with one holder
        (the minting node's ``own`` slot).  Returns an int64 id array.
        """
        count = len(values)
        while len(self._free) < count:
            self._grow()
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        pids = np.array(
            [self._free.pop() for _ in range(count)], dtype=np.int64
        )
        self.total_interned += count
        self.values[pids] = values
        self.expires_at[pids] = expires
        self.owners[pids] = owners
        self.refcounts[pids] = 1
        return pids

    def matches(self, pid: int, pseudonym: Pseudonym) -> bool:
        """Whether id ``pid`` denotes a pseudonym equal to ``pseudonym``."""
        obj = self.objects[pid]
        if obj is not None:
            return obj == pseudonym
        return (
            int(self.values[pid]) == pseudonym.value
            and float(self.expires_at[pid]) == pseudonym.expires_at
        )

    def view(self, pid: int) -> Pseudonym:
        """The pseudonym behind ``pid`` as an object (lazily built).

        Batch-minted pseudonyms synthesize an ``arena``-kind address
        from their id; view-interned ones return the original instance.
        """
        obj = self.objects[pid]
        if obj is None:
            obj = Pseudonym(
                value=int(self.values[pid]),
                address=Address(token=int(pid), kind="arena"),
                expires_at=float(self.expires_at[pid]),
            )
            self.objects[pid] = obj
            self._ids[obj] = pid
        return obj

    def check_invariants(self, holders: np.ndarray) -> None:
        """Raise :class:`ProtocolError` unless the refcounts add up.

        ``holders`` names every held id once per holder (a cache, slot
        or link cell, an ``own`` slot, a set in flight).  Every id's
        refcount must equal its holders, a free id has none and sits on
        the free list once, and an id off the free list has at least
        one.  For tests and debugging — never called from the engines.
        """
        free = np.array(self._free, dtype=np.int64)
        listed = np.bincount(free, minlength=self.capacity)
        if (listed > 1).any():
            pid = int(np.flatnonzero(listed > 1)[0])
            raise ProtocolError(f"pseudonym id {pid} is on the free list twice")
        held = np.bincount(
            np.asarray(holders, dtype=np.int64), minlength=self.capacity
        )
        wrong = np.flatnonzero(held != self.refcounts)
        if len(wrong):
            pid = int(wrong[0])
            raise ProtocolError(
                f"pseudonym id {pid} has refcount {int(self.refcounts[pid])} "
                f"and {int(held[pid])} holders"
            )
        wrong = np.flatnonzero((listed > 0) != (self.refcounts == 0))
        if len(wrong):
            pid = int(wrong[0])
            where = "on" if listed[pid] else "off"
            raise ProtocolError(
                f"pseudonym id {pid} is {where} the free list with refcount "
                f"{int(self.refcounts[pid])}"
            )


class NodeArena:
    """Columnar per-node protocol state plus the vectorized batch kernels.

    One row per node; rows are preallocated in ``node_chunk`` blocks
    and columns widen on demand.  The row layout:

    * sampler slots — ``slot_refs`` (immutable reference values),
      ``slot_dist`` (current |value - R|), ``slot_ids`` (interned
      occupant, -1 empty), per-row ``slot_n`` and ``slot_soonest``
      (expiry lower bound); an occupant's expiry is read from the
      pseudonym table;
    * pseudonym cache — ``cache_ids`` insertion-ordered (oldest first),
      per-row ``cache_len`` / ``cache_cap`` / ``cache_min_exp``;
    * pseudonym links — ``link_ids`` in link-table order, ``link_len``;
    * trusted links — an optional static CSR
      (:meth:`set_trusted_csr`, batch plane; the view plane keeps the
      mutable trusted sets object-side).

    The batch kernels apply the row views' semantics to whole row
    batches; ``tests/test_arena.py`` pins them against per-row view
    calls.
    """

    __slots__ = (
        "pseudonyms",
        "node_chunk",
        "num_nodes",
        "slot_refs",
        "slot_dist",
        "slot_ids",
        "slot_n",
        "slot_soonest",
        "cache_ids",
        "cache_len",
        "cache_cap",
        "cache_min_exp",
        "link_ids",
        "link_len",
        "trusted_indptr",
        "trusted_indices",
    )

    def __init__(
        self,
        pseudonyms: Optional[PseudonymArena] = None,
        node_chunk: int = 1024,
    ) -> None:
        if node_chunk < 1:
            raise ProtocolError(f"node_chunk must be >= 1, got {node_chunk}")
        self.pseudonyms = pseudonyms if pseudonyms is not None else PseudonymArena()
        self.node_chunk = node_chunk
        self.num_nodes = 0
        self.slot_refs = np.zeros((0, 0), dtype=np.int64)
        self.slot_dist = np.zeros((0, 0), dtype=np.int64)
        self.slot_ids = np.zeros((0, 0), dtype=np.int32)
        self.slot_n = np.zeros(0, dtype=np.int32)
        self.slot_soonest = np.zeros(0, dtype=np.float64)
        self.cache_ids = np.zeros((0, 0), dtype=np.int32)
        self.cache_len = np.zeros(0, dtype=np.int32)
        self.cache_cap = np.zeros(0, dtype=np.int32)
        self.cache_min_exp = np.zeros(0, dtype=np.float64)
        self.link_ids = np.zeros((0, 0), dtype=np.int32)
        self.link_len = np.zeros(0, dtype=np.int32)
        self.trusted_indptr: Optional[np.ndarray] = None
        self.trusted_indices: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # row/column management
    # ------------------------------------------------------------------

    @property
    def row_capacity(self) -> int:
        """Allocated rows (>= registered nodes)."""
        return len(self.slot_n)

    @property
    def slot_cols(self) -> int:
        """Current sampler-slot column width."""
        return self.slot_refs.shape[1]

    @property
    def cache_cols(self) -> int:
        """Current cache column width."""
        return self.cache_ids.shape[1]

    @property
    def link_cols(self) -> int:
        """Current link column width."""
        return self.link_ids.shape[1]

    def _ensure_rows(self, rows: int) -> None:
        have = self.row_capacity
        if rows <= have:
            return
        target = have
        while target < rows:
            target += self.node_chunk
        self.slot_refs = _grown(self.slot_refs, target, self.slot_cols, 0)
        self.slot_dist = _grown(
            self.slot_dist, target, self.slot_cols, _EMPTY_DISTANCE
        )
        self.slot_ids = _grown(self.slot_ids, target, self.slot_cols, -1)
        self.cache_ids = _grown(self.cache_ids, target, self.cache_cols, -1)
        self.link_ids = _grown(self.link_ids, target, self.link_cols, -1)
        for name, fill in (
            ("slot_n", 0),
            ("slot_soonest", math.inf),
            ("cache_len", 0),
            ("cache_cap", 0),
            ("cache_min_exp", math.inf),
            ("link_len", 0),
        ):
            old = getattr(self, name)
            grown = np.full(target, fill, dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _ensure_slot_cols(self, cols: int) -> None:
        if cols <= self.slot_cols:
            return
        rows = self.row_capacity
        self.slot_refs = _grown(self.slot_refs, rows, cols, 0)
        self.slot_dist = _grown(self.slot_dist, rows, cols, _EMPTY_DISTANCE)
        self.slot_ids = _grown(self.slot_ids, rows, cols, -1)
        self._ensure_link_cols(cols)

    def _ensure_cache_cols(self, cols: int) -> None:
        if cols <= self.cache_cols:
            return
        rows = self.row_capacity
        self.cache_ids = _grown(self.cache_ids, rows, cols, -1)

    def _ensure_link_cols(self, cols: int) -> None:
        if cols <= self.link_cols:
            return
        self.link_ids = _grown(self.link_ids, self.row_capacity, cols, -1)

    def register_node(
        self, node_id: int, slot_count: int, cache_capacity: int
    ) -> None:
        """Claim row ``node_id``; rows register in order.

        Inside an overlay the row is the node id; a standalone node's
        private arena holds it at row 0 whatever its id.
        """
        if node_id != self.num_nodes:
            raise ProtocolError(
                f"nodes must register sequentially: expected {self.num_nodes}, "
                f"got {node_id}"
            )
        self._ensure_rows(node_id + 1)
        self._ensure_slot_cols(slot_count)
        self._ensure_cache_cols(cache_capacity)
        self.slot_n[node_id] = slot_count
        self.slot_soonest[node_id] = math.inf
        self.cache_cap[node_id] = cache_capacity
        self.cache_min_exp[node_id] = math.inf
        self.num_nodes = node_id + 1

    def register_batch(
        self,
        num_nodes: int,
        slot_counts: Union[int, np.ndarray],
        cache_capacity: int,
    ) -> None:
        """Claim rows ``0..num_nodes-1`` at once (fresh arenas only).

        ``slot_counts`` is each row's sampler size (a scalar applies to
        every row); the slot columns widen to the largest.
        """
        if self.num_nodes != 0:
            raise ProtocolError("register_batch requires a fresh arena")
        self._ensure_rows(num_nodes)
        self._ensure_slot_cols(int(np.max(slot_counts, initial=0)))
        self._ensure_cache_cols(cache_capacity)
        self.slot_n[:num_nodes] = slot_counts
        self.slot_soonest[:num_nodes] = math.inf
        self.cache_cap[:num_nodes] = cache_capacity
        self.cache_min_exp[:num_nodes] = math.inf
        self.num_nodes = num_nodes

    def set_trusted_csr(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Install the static trusted adjacency (batch plane)."""
        if len(indptr) != self.num_nodes + 1:
            raise ProtocolError(
                f"indptr covers {len(indptr) - 1} nodes, arena has "
                f"{self.num_nodes}"
            )
        self.trusted_indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.trusted_indices = np.ascontiguousarray(indices, dtype=np.int64)

    def link_edges(
        self, now: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pseudonym link as ``(row, owner, alive)`` columns.

        One entry per link cell, rows ascending and each row in
        link-table order: the holding row, the owner from the
        :attr:`PseudonymArena.owners` column (-1 when unknown), and
        whether the pseudonym is unexpired at ``now``.  Both engines
        build their snapshots from this (see :func:`assemble_snapshot`).
        """
        count = self.num_nodes
        lens = self.link_len[:count]
        live = np.arange(self.link_cols)[None, :] < lens[:, None]
        pids = self.link_ids[:count][live]
        table = self.pseudonyms
        alive = table.expires_at[pids] > now
        row = np.repeat(np.arange(count, dtype=np.int64), lens)
        return row, table.owners[pids], alive

    def update_digest(self, digest, count: int) -> None:
        """Feed ``digest`` the first ``count`` rows' occupancy and values.

        Per column family (cache, links, then slots): the row lengths
        (the packed occupancy bits for the slots), then the stored
        pseudonym values row by row in column order — id-free, so the
        bytes do not depend on how ids were allocated.  Hashes
        :data:`BLOCK_ROWS` rows at a time, rounded up to a multiple of
        eight so every block's packed bits end on a byte boundary: the
        stream is the one a single pass over all rows feeds.
        """
        values = self.pseudonyms.values
        bounds = list(range(0, count, BLOCK_ROWS + -BLOCK_ROWS % 8))
        blocks = list(zip(bounds, bounds[1:] + [count]))
        for ids, lens in (
            (self.cache_ids, self.cache_len),
            (self.link_ids, self.link_len),
        ):
            digest.update(lens[:count].tobytes())
            columns = np.arange(ids.shape[1])
            for lo, hi in blocks:
                live = columns < lens[lo:hi, None]
                digest.update(values[ids[lo:hi][live]].tobytes())
        for lo, hi in blocks:
            digest.update(np.packbits(self.slot_ids[lo:hi] >= 0).tobytes())
        for lo, hi in blocks:
            slot_ids = self.slot_ids[lo:hi]
            digest.update(values[slot_ids[slot_ids >= 0]].tobytes())

    def memory_bytes(self) -> int:
        """Deterministic storage accounting of every arena column."""
        total = 0
        for name in (
            "slot_refs",
            "slot_dist",
            "slot_ids",
            "slot_n",
            "slot_soonest",
            "cache_ids",
            "cache_len",
            "cache_cap",
            "cache_min_exp",
            "link_ids",
            "link_len",
        ):
            total += getattr(self, name).nbytes
        if self.trusted_indptr is not None:
            total += self.trusted_indptr.nbytes + self.trusted_indices.nbytes
        ps = self.pseudonyms
        total += ps.values.nbytes + ps.expires_at.nbytes
        total += ps.owners.nbytes + ps.refcounts.nbytes
        return total

    def check_invariants(self, extra_holders: Sequence[int] = ()) -> None:
        """Raise :class:`ProtocolError` naming the first broken invariant.

        Checks what the kernels rely on and nothing reads back: row
        lengths within bounds, cells past a row's length -1, an occupied
        slot's cached distance equal to its occupant's, the
        two expiry bounds really lower bounds, and every pseudonym's
        refcount equal to the cells that store it plus
        ``extra_holders`` (ids held outside the arena: the batch
        engine's own pseudonyms, a set in flight).  For tests and
        debugging — never called from the engines.
        """
        ps = self.pseudonyms
        count = self.num_nodes

        def require(ok: np.ndarray, what: str) -> None:
            if not ok.all():
                row = int(np.flatnonzero(~ok)[0])
                raise ProtocolError(f"arena row {row}: {what}")

        def expiries(ids: np.ndarray) -> np.ndarray:
            return np.where(ids >= 0, ps.expires_at[ids], math.inf)

        holders = [np.asarray(extra_holders, dtype=np.int64)]
        for name, ids, lengths, limit in (
            ("cache", self.cache_ids, self.cache_len, self.cache_cap),
            ("link", self.link_ids, self.link_len, None),
        ):
            ids, lengths = ids[:count], lengths[:count]
            require(lengths >= 0, f"negative {name} length")
            require(lengths <= ids.shape[1], f"{name} length past its columns")
            if limit is not None:
                require(lengths <= limit[:count], f"{name} length past capacity")
            live = np.arange(ids.shape[1]) < lengths[:, None]
            require(
                ((ids >= 0) == live).all(axis=1),
                f"{name} cells and length disagree",
            )
            holders.append(ids[live])
        require(
            self.cache_min_exp[:count]
            <= expiries(self.cache_ids[:count]).min(axis=1, initial=math.inf),
            "cache_min_exp is later than a cached expiry",
        )
        ids = self.slot_ids[:count]
        occupied = ids >= 0
        usable = np.arange(self.slot_cols) < self.slot_n[:count, None]
        require((occupied <= usable).all(axis=1), "occupant past the slot count")
        value = ps.values[ids]
        distance = np.where(
            occupied, np.abs(value - self.slot_refs[:count]), _EMPTY_DISTANCE
        )
        require(
            (self.slot_dist[:count] == distance).all(axis=1),
            "slot_dist is not the occupant's distance",
        )
        require(
            self.slot_soonest[:count]
            <= expiries(ids).min(axis=1, initial=math.inf),
            "slot_soonest is later than an occupant's expiry",
        )
        holders.append(ids[occupied])
        ps.check_invariants(np.concatenate(holders))

    # ------------------------------------------------------------------
    # batch kernels (semantics identical to the per-row views; pinned
    # row-wise by tests/test_arena.py and wave by wave by
    # tests/test_absorb_kernel.py)
    #
    # The kernels hold their working state transposed — the short axis
    # (slots, cache columns, candidates) first, the receiving rows last
    # — so every numpy pass runs along one contiguous long axis and the
    # Python loops are over the short ones.  Deliveries come wave-major
    # (``_wave_major``): wave w's receivers are ``rows[:sizes[w]]``, a
    # prefix view of that state, and its sets one contiguous block.
    # The state is held for ``BLOCK_ROWS`` receivers at a time.
    # ------------------------------------------------------------------

    def _usable(
        self, cand_ids: np.ndarray, now: float, own_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate sets transposed to ``(set length, deliveries)``.

        Padding, expired and own entries become -1.  Also returns every
        delivery's soonest usable expiry (inf when it carries nothing).
        Masks :data:`BLOCK_ROWS` deliveries at a time into the two
        outputs.
        """
        cand_ids = np.asarray(cand_ids)
        own_ids = np.asarray(own_ids)
        count = len(cand_ids)
        sets = np.empty((cand_ids.shape[1], count), dtype=cand_ids.dtype)
        soonest = np.empty(count)
        expires_at = self.pseudonyms.expires_at
        for lo in range(0, count, BLOCK_ROWS):
            hi = lo + BLOCK_ROWS
            block = cand_ids[lo:hi].T
            expiry = expires_at[block]
            keep = (block >= 0) & (expiry > now) & (block != own_ids[lo:hi])
            soonest[lo:hi] = np.where(keep, expiry, math.inf).min(
                axis=0, initial=math.inf
            )
            sets[:, lo:hi] = np.where(keep, block, -1)
        return sets, soonest

    def batch_absorb(
        self,
        dst: np.ndarray,
        cand_ids: np.ndarray,
        now: float,
        own_ids: np.ndarray,
    ) -> np.ndarray:
        """Fold every delivery ``dst[i] <- cand_ids[i]`` into cache and slots.

        The batch form of a node absorbing its received sets one after
        the other: ``dst`` may name a row any number of times and a
        row's sets fold in the order given.  Expired candidates and the
        receiver's own pseudonym (``own_ids[i]``) are dropped first.
        Every row is gathered once, folded in place and scattered once,
        :data:`BLOCK_ROWS` receivers at a time in rank order.  Each
        block's acquires apply as it folds and the releases settle once,
        after the last block: every acquire precedes every release (a
        pseudonym inserted by one set and evicted by the next may have
        no other holder in between) and freed ids join the free list in
        id order whatever the block size.  Returns the rows whose slots
        changed, in rank order.
        """
        sets, soonest = self._usable(cand_ids, now, own_ids)
        heard = np.flatnonzero(soonest < math.inf)
        rows, order, sizes = _wave_major(np.asarray(dst)[heard])
        order = heard[order]
        starts = (np.cumsum(sizes) - sizes).tolist()
        changed, released = [], []
        # Rows fold independently, so each block of ranked rows folds on
        # its own: wave w's part of the block is the slice of its
        # receivers ``rows[:sizes[w]]`` that falls in ``[lo, hi)``.
        for lo in range(0, len(rows), BLOCK_ROWS):
            block = rows[lo : lo + BLOCK_ROWS]
            widths = np.minimum(sizes[sizes > lo], lo + len(block)) - lo
            picks = np.concatenate(
                [
                    order[start + lo : start + lo + n]
                    for start, n in zip(starts, widths.tolist())
                ]
            )
            block_sets = np.take(sets, picks, axis=1)
            slots_changed, seated, unseated = self._fold_slots(
                block, widths, block_sets
            )
            _, cached, evicted = self._fold_cache(
                block, widths, block_sets, soonest[picks], now
            )
            changed.append(block[slots_changed > 0])
            self.pseudonyms.acquire_batch(seated)
            self.pseudonyms.acquire_batch(cached)
            released += [unseated, evicted]
        if not changed:
            return _NO_IDS
        self.pseudonyms.release_batch(np.concatenate(released))
        return np.concatenate(changed)

    def _fold_slots(
        self, rows: np.ndarray, sizes: Sequence[int], sets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Offer wave-major candidate sets to the rows' sampler slots.

        ``sets`` is ``(set length, deliveries)``, -1 where there is no
        candidate, every delivery carrying at least one.  One running
        minimum per (row, slot) over every (wave, position) in turn —
        the per-receipt traversal.  The replacement rule is a strict
        order with the incumbent winning ties, so the fold seats the
        occupant any wave-by-wave evaluation would, and only the first
        and the last occupant of a slot touch its refcounts.  Returns
        ``(changed slots per row, ids seated, ids unseated)``; the
        caller settles the refcounts.
        """
        ps = self.pseudonyms
        sizes = np.asarray(sizes, dtype=np.int64)
        width, slots = sets.shape[0], self.slot_cols
        if slots == 0 or sets.size == 0:
            return np.zeros(len(rows), dtype=np.int64), _NO_IDS, _NO_IDS
        # A missing candidate stands in for its set's first real one: a
        # duplicate never wins a strict comparison, so the sweep below
        # needs no validity mask.
        real = sets >= 0
        first = sets[-1]
        for j in range(width - 2, -1, -1):
            first = np.where(real[j], sets[j], first)
        ids = np.where(real, sets, first)
        values = ps.values[ids]
        refs = _transposed(self.slot_refs, rows)
        best = _transposed(self.slot_dist, rows)
        occupant = _transposed(self.slot_ids, rows)
        # Nothing is closer than -1: columns past a row's slot count
        # never seat anybody.
        best[np.arange(slots)[:, None] >= self.slot_n[rows]] = -1
        starts = np.cumsum(sizes) - sizes
        # holder[s, r]: 0 while the occupant stays, else 1 + wave * width
        # + position of the candidate seated so far.
        holder = np.zeros(
            best.shape, dtype=np.min_scalar_type(width * len(sizes))
        )
        turn_of = holder.dtype.type
        narrow = ids.astype(occupant.dtype)
        dist = np.empty_like(best)
        mark = np.empty_like(holder)
        flags = np.empty((3,) + best.shape, dtype=bool)
        turn = 0
        for start, n in zip(starts.tolist(), sizes.tolist()):
            d, b, h, m = dist[:, :n], best[:, :n], holder[:, :n], mark[:, :n]
            wins, ties, differs = flags[:, :, :n]
            for j in range(width):
                turn += 1
                np.subtract(refs[:, :n], values[j, start : start + n], out=d)
                np.abs(d, out=d)
                np.less(d, b, out=wins)
                np.equal(d, b, out=ties)
                np.minimum(b, d, out=b)
                # Equally close is nearly always the candidate already
                # sitting in the slot, or a stand-in; what is left is
                # sparse, and the later expiry takes it.
                np.not_equal(
                    occupant[:, :n], narrow[j, start : start + n], out=differs
                )
                ties &= differs
                ties &= real[j, start : start + n]
                if ties.any():
                    s, r = np.divmod(np.flatnonzero(ties), n)
                    seated = h[s, r].astype(np.int64) - 1
                    wave, k = np.divmod(np.maximum(seated, 0), width)
                    held = np.where(
                        seated < 0, occupant[s, r], ids[k, starts[wave] + r]
                    )
                    incumbent = np.where(
                        held >= 0, ps.expires_at[held], -math.inf
                    )
                    later = ps.expires_at[ids[j, start + r]] > incumbent
                    wins[s[later], r[later]] = True
                # Turns only grow, so the running maximum is the latest win.
                np.multiply(wins, turn_of(turn), out=m)
                np.maximum(h, m, out=h)
        s, r = np.divmod(np.flatnonzero(holder), len(rows))
        wave, j = np.divmod(holder[s, r].astype(np.int64) - 1, width)
        new = ids[j, starts[wave] + r]
        node = rows[r]
        old = occupant[s, r].astype(np.int64)
        expiry = ps.expires_at[new]
        self.slot_ids[node, s] = new
        self.slot_dist[node, s] = best[s, r]
        soonest = np.full(best.shape, math.inf)
        soonest[s, r] = expiry
        self.slot_soonest[rows] = np.minimum(
            self.slot_soonest[rows], soonest.min(axis=0)
        )
        return np.bincount(r, minlength=len(rows)), new, old[old >= 0]

    def _fold_cache(
        self,
        rows: np.ndarray,
        sizes: Sequence[int],
        sets: np.ndarray,
        soonest: np.ndarray,
        now: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merge wave-major candidate sets into the rows' caches.

        ``sets`` as in :meth:`_fold_slots` (an empty delivery is fine
        here), ``soonest`` each delivery's earliest expiry.  Unlike the
        slots the cache is order-dependent — a wave can evict what a
        later wave re-inserts — so it folds wave by wave, but on rows
        gathered once.  Returns ``(inserted per row, ids inserted, ids
        evicted)``; the caller settles the refcounts.
        """
        ps = self.pseudonyms
        sizes = np.asarray(sizes, dtype=np.int64)
        width, cols, count = sets.shape[0], self.cache_cols, len(rows)
        inserted = np.zeros(count, dtype=np.int64)
        if sets.size == 0:
            return inserted, _NO_IDS, _NO_IDS
        # Within-set duplicates: the first occurrence stays.
        new = sets.astype(self.cache_ids.dtype)
        _drop_repeats(new)
        # The cache columns, room for one whole set ahead of the
        # eviction shift, and a spare row.  Cells past a row's length
        # are -1.
        table = np.full(
            (cols + width + 1, count), -1, dtype=self.cache_ids.dtype
        )
        table[:cols] = self.cache_ids[rows].T
        length = self.cache_len[rows].astype(np.int64)
        capacity = self.cache_cap[rows].astype(np.int64)
        bound = self.cache_min_exp[rows]
        column = (np.arange(cols) * count)[:, None]
        cached = []
        evicted = []
        offset = 0
        for n in sizes.tolist():
            block = new[:, offset : offset + n]
            # Membership, one cache column at a time, against the cache
            # as the set arrives.
            fresh = block >= 0
            for c in range(cols):
                fresh &= block != table[c, :n]
            # Survivors append in set order behind the row's length.
            end = _append(table[:, :n], length[:n], block, fresh)
            # FIFO eviction: a full row drops its oldest cells, which is
            # every column moving down by the row's overflow.
            shift = np.maximum(end - capacity[:n], 0)
            evicted.append(table[:width, :n][np.arange(width)[:, None] < shift])
            source = shift * count + np.arange(n) + column
            table[:cols, :n] = table.reshape(-1)[source]
            table[cols:-1, :n] = -1
            inserted[:n] += end - length[:n]
            length[:n] = end - shift
            # An entry already cached expires no sooner than the row's
            # bound, so the set's soonest usable candidate lowers it as
            # far as its soonest inserted one would.
            np.minimum(bound[:n], soonest[offset : offset + n], out=bound[:n])
            cached.append(block[fresh])
            offset += n
        self.cache_ids[rows] = table[:cols].T
        self.cache_len[rows] = length
        self.cache_min_exp[rows] = bound
        return inserted, np.concatenate(cached), np.concatenate(evicted)

    def batch_links_from_slots(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Re-derive each row's pseudonym links from its sampler slots.

        Exactly ``links.update_from_sample(slots.sample())`` per
        (distinct) row: the link row becomes the distinct slot occupants
        in slot order, retained entries keep their link-table position,
        new entries append in sample order.  Returns per-row (added,
        removed) counts — the paper's link-replacement overhead metric.
        """
        rows = np.asarray(rows)
        if len(rows) == 0:
            return _NO_IDS, _NO_IDS
        ps = self.pseudonyms
        # Distinct occupants, first slot occurrence wins.
        sample = _transposed(self.slot_ids, rows)
        _drop_repeats(sample)
        # Cells past a row's link count are -1, like an empty slot.
        old = _transposed(self.link_ids, rows)
        retained = np.zeros(old.shape, dtype=bool)
        fresh = sample >= 0
        for j in range(len(sample)):
            linked = (old == sample[j]) & fresh[j]
            retained |= linked
            fresh[j] &= ~linked.any(axis=0)
        dropped = (old >= 0) & ~retained
        ps.acquire_batch(sample[fresh])
        ps.release_batch(old[dropped])
        # Retained links keep their order, fresh ones append.
        links = np.full((len(old) + 1, len(rows)), -1, dtype=old.dtype)
        end = _append(links, np.zeros(len(rows), dtype=np.int64), old, retained)
        end = _append(links, end, sample, fresh)
        self.link_ids[rows] = links[:-1].T
        self.link_len[rows] = end
        return fresh.sum(axis=0), dropped.sum(axis=0)

    def batch_expire(self, now: float) -> Tuple[np.ndarray, np.ndarray]:
        """Purge expired occupants from every slot and cache row.

        The batched churn/maintenance transition: empties every sampler
        slot holding an expired pseudonym and compacts every cache row,
        releasing the dropped ids (freed ids return to the pseudonym
        arena's free list for reuse).  Returns
        ``(slot_dirty_rows, cache_dirty_rows)`` so the caller can
        refresh links / stats for exactly the rows that changed.
        """
        ps = self.pseudonyms
        count = self.num_nodes
        slot_rows = np.flatnonzero(self.slot_soonest[:count] <= now)
        if len(slot_rows):
            sids = self.slot_ids[slot_rows]
            safe = np.where(sids >= 0, sids, 0)
            dead = (sids >= 0) & (ps.expires_at[safe] <= now)
            dirty = dead.any(axis=1)
            slot_rows = slot_rows[dirty]
            if len(slot_rows):
                sids = self.slot_ids[slot_rows]
                safe = np.where(sids >= 0, sids, 0)
                dead = (sids >= 0) & (ps.expires_at[safe] <= now)
                ps.release_batch(sids[dead])
                self.slot_ids[slot_rows] = np.where(dead, -1, sids)
                self.slot_dist[slot_rows] = np.where(
                    dead, _EMPTY_DISTANCE, self.slot_dist[slot_rows]
                )
            # Recompute the expiry lower bound for every row we scanned.
            scanned = np.flatnonzero(self.slot_soonest[:count] <= now)
            if len(scanned):
                sids = self.slot_ids[scanned]
                occ = sids >= 0
                exp = np.where(
                    occ, ps.expires_at[np.where(occ, sids, 0)], math.inf
                )
                self.slot_soonest[scanned] = exp.min(axis=1)
        cache_rows = np.flatnonzero(self.cache_min_exp[:count] <= now)
        if len(cache_rows):
            cols = self.cache_cols
            ids = self.cache_ids[cache_rows]
            live = np.arange(cols)[None, :] < self.cache_len[cache_rows][:, None]
            safe = np.where(ids >= 0, ids, 0)
            dead = live & (ps.expires_at[safe] <= now)
            dirty = dead.any(axis=1)
            ps.release_batch(ids[dead])
            keep = live & ~dead
            order = np.argsort(~keep, axis=1, kind="stable")
            packed = np.take_along_axis(np.where(keep, ids, -1), order, axis=1)
            self.cache_ids[cache_rows] = packed
            self.cache_len[cache_rows] = keep.sum(axis=1)
            exp = np.where(
                keep, ps.expires_at[np.where(keep, ids, 0)], math.inf
            )
            self.cache_min_exp[cache_rows] = exp.min(axis=1)
            cache_rows = cache_rows[dirty]
        return slot_rows, cache_rows

    def sample_cache(
        self, rows: np.ndarray, count: int, keys: np.ndarray
    ) -> np.ndarray:
        """Uniform distinct cache samples: up to ``count`` ids per row.

        ``keys`` is a ``(len(rows), cache_cols)`` array of
        ``Generator.random`` floats supplied by the caller (the arena
        draws no randomness itself); each row returns the entries holding
        its ``count`` smallest keys, equal keys by column — a uniform
        without-replacement sample.  Padded with -1.  Ranks
        :data:`BLOCK_ROWS` rows at a time.

        Each key is exactly ``k · 2⁻⁵³`` for an integer ``k``, so the
        rank key ``k << b | column``, ``b = bit_length(cache_cols - 1)``,
        is exact and no two live cells share one; dead cells rank last at
        uint64 max.  So a plain (unstable) sort of the rank keys puts the
        columns in the stable order of the float keys, and the low ``b``
        bits of the first ``count`` name them.  Needs ``cache_cols`` ≤
        :data:`SAMPLE_MAX_COLS`.
        """
        cols = self.cache_cols
        if cols > SAMPLE_MAX_COLS:
            raise ProtocolError(
                f"sample_cache ranks at most {SAMPLE_MAX_COLS} cache "
                f"columns, the arena has {cols}"
            )
        if count <= 0 or cols == 0:
            return np.full((len(rows), max(count, 0)), -1, dtype=np.int32)
        width = min(count, cols)
        picked = np.empty((len(rows), width), dtype=np.int32)
        columns = np.arange(cols, dtype=np.uint64)
        bits = (cols - 1).bit_length()
        low = np.uint64((1 << bits) - 1)
        for lo in range(0, len(rows), BLOCK_ROWS):
            block = rows[lo : lo + BLOCK_ROWS]
            lens = self.cache_len[block][:, None]
            ranked = (keys[lo : lo + BLOCK_ROWS] * 2.0**53).astype(np.uint64)
            ranked <<= np.uint64(bits)
            ranked |= columns
            np.putmask(ranked, np.arange(cols) >= lens, _DEAD_KEY)
            ranked.sort(axis=1)
            # A dead cell's low bits may name no column; it reads -1 below.
            col = np.minimum(ranked[:, :width] & low, cols - 1).astype(np.intp)
            ids = self.cache_ids[block[:, None], col]
            np.putmask(ids, np.arange(width) >= lens, -1)
            picked[lo : lo + BLOCK_ROWS] = ids
        return picked


def assemble_snapshot(
    ids: np.ndarray,
    num_nodes: int,
    trust_lo: np.ndarray,
    trust_hi: np.ndarray,
    links: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> FlatSnapshot:
    """The overlay graph on node ids ``ids`` (ascending, < ``num_nodes``).

    Edges are the trusted pairs ``(trust_lo, trust_hi)`` with both ends
    in ``ids`` plus every link of :meth:`NodeArena.link_edges` (given as
    global ``(holder, owner, alive)`` columns) that is alive, has a
    known owner other than its holder, and has both ends in ``ids``.
    """
    pos = np.full(num_nodes, -1, dtype=np.int64)
    pos[ids] = np.arange(len(ids), dtype=np.int64)
    holder, owner, alive = links
    live = alive & (owner >= 0) & (owner != holder)
    # Only the kept pairs are alive while the snapshot sorts.
    ends = np.concatenate(
        (
            _placed_pairs(pos, trust_lo, trust_hi, True),
            _placed_pairs(pos, holder, owner, live),
        ),
        axis=1,
    )
    return FlatSnapshot.from_edge_positions(ids, ends[0], ends[1])


def _placed_pairs(
    pos: np.ndarray, u: np.ndarray, v: np.ndarray, keep: "bool | np.ndarray"
) -> np.ndarray:
    """``(2, k)`` positions of the pairs ``(u, v)`` that ``keep`` selects
    and that have both ends in ``pos``; ``keep`` must drop any pair with
    a negative end.  Masking after the gather holds fewer link-sized
    arrays at once than compressing the columns before it."""
    pairs = np.empty((2, len(u)), dtype=np.int64)
    np.take(pos, u, out=pairs[0])
    np.take(pos, v, out=pairs[1])
    return pairs[:, keep & (pairs >= 0).all(axis=0)]


class ArenaCache:
    """The per-node pseudonym cache (paper Section III-D1), one arena row.

    "Upon receiving a set over the link, the node updates its own cache
    to include all entries in the received set (with the exception of
    its own pseudonym, if present).  The cache replacement policy is
    similar to that employed in [CYCLON]": when merging into a full
    cache, first drop expired entries, then prefer evicting entries
    just sent to the gossip partner (they live on in the partner's
    cache), and finally evict the oldest.  A later-expiring copy of an
    already-cached value replaces the earlier one (cannot happen for
    honestly minted pseudonyms, but the policy is total anyway).

    The entry table is the row's insertion-ordered ``cache_ids``
    (oldest first).
    """

    __slots__ = ("_arena", "_row")

    def __init__(self, arena: NodeArena, row: int, capacity: int) -> None:
        if capacity < 1:
            raise ProtocolError(f"cache capacity must be >= 1, got {capacity}")
        self._arena = arena
        self._row = row
        arena._ensure_cache_cols(capacity)
        arena.cache_cap[row] = capacity
        arena.cache_min_exp[row] = math.inf

    @property
    def capacity(self) -> int:
        """Maximum number of stored pseudonyms."""
        return int(self._arena.cache_cap[self._row])

    def __len__(self) -> int:
        return int(self._arena.cache_len[self._row])

    def _ids(self) -> np.ndarray:
        arena = self._arena
        return arena.cache_ids[self._row, : int(arena.cache_len[self._row])]

    def _find_value(self, value: int) -> Optional[int]:
        arena = self._arena
        ids = self._ids()
        hits = np.flatnonzero(arena.pseudonyms.values[ids] == value)
        return int(hits[0]) if len(hits) else None

    def __contains__(self, pseudonym: Pseudonym) -> bool:
        position = self._find_value(pseudonym.value)
        if position is None:
            return False
        return self._arena.pseudonyms.matches(
            int(self._ids()[position]), pseudonym
        )

    def pseudonyms(self) -> List[Pseudonym]:
        """All cached pseudonyms (unordered snapshot)."""
        view = self._arena.pseudonyms.view
        return [view(int(pid)) for pid in self._ids()]

    def _remove_at(self, position: int) -> None:
        arena = self._arena
        row = self._row
        length = int(arena.cache_len[row])
        ids = arena.cache_ids[row]
        arena.pseudonyms.release(int(ids[position]))
        ids[position : length - 1] = ids[position + 1 : length]
        ids[length - 1] = -1
        arena.cache_len[row] = length - 1

    def remove_expired(self, now: float) -> int:
        """Drop expired entries; returns how many were removed."""
        arena = self._arena
        row = self._row
        if now < arena.cache_min_exp[row]:
            return 0
        length = int(arena.cache_len[row])
        ids = arena.cache_ids[row, :length]
        expires = arena.pseudonyms.expires_at[ids]
        keep = expires > now
        removed = int(length - keep.sum())
        if removed:
            kept = ids[keep].copy()
            for pid in ids[~keep].tolist():
                arena.pseudonyms.release(int(pid))
            arena.cache_ids[row, : len(kept)] = kept
            arena.cache_ids[row, len(kept) : length] = -1
            arena.cache_len[row] = len(kept)
        arena.cache_min_exp[row] = (
            float(expires[keep].min()) if keep.any() else math.inf
        )
        return removed

    def remove(self, pseudonym: Pseudonym) -> bool:
        """Remove a specific pseudonym; returns whether it was present."""
        position = self._find_value(pseudonym.value)
        if position is None:
            return False
        if not self._arena.pseudonyms.matches(
            int(self._ids()[position]), pseudonym
        ):
            return False
        self._remove_at(position)
        return True

    def newest(self, count: int, now: float) -> List[Pseudonym]:
        """The ``count`` most recently inserted unexpired pseudonyms,
        newest first.

        Used by the naive cache-based sampler ablation (no Brahms
        slots): links follow whatever arrived last, which
        over-represents frequently gossiped (hub) pseudonyms.
        """
        self.remove_expired(now)
        view = self._arena.pseudonyms.view
        # The row is in insertion order: the newest entries are its last.
        return [view(pid) for pid in self._ids()[::-1][:count].tolist()]

    def select_for_shuffle(
        self, rng: np.random.Generator, count: int, now: float
    ) -> List[Pseudonym]:
        """Uniformly sample up to ``count`` unexpired cached pseudonyms."""
        self.remove_expired(now)
        ids = self._ids()
        if count < len(ids):
            ids = ids[rng.choice(len(ids), size=count, replace=False)]
        table = self._arena.pseudonyms
        objects = table.objects
        return [objects[pid] or table.view(pid) for pid in ids.tolist()]

    def merge(
        self,
        received: Iterable[Pseudonym],
        now: float,
        just_sent: Optional[Iterable[Pseudonym]] = None,
        own_value: Optional[int] = None,
    ) -> int:
        """Merge a received batch, applying the replacement policy.

        ``just_sent`` are the entries this node sent to the partner in
        the same exchange (preferred eviction victims, per CYCLON);
        ``own_value`` is the node's own pseudonym value, never cached.
        Returns the number of received entries inserted or refreshed.

        Costs one gather of the row, a hash probe per candidate and a
        write-back of the changed cells (``docs/node_plane.md``,
        per-receipt cost).
        """
        self.remove_expired(now)
        arena = self._arena
        row = self._row
        table = arena.pseudonyms
        length = int(arena.cache_len[row])
        capacity = int(arena.cache_cap[row])
        row_ids = arena.cache_ids[row]
        # Places 0 .. length-1 are the row, oldest first; an insert takes
        # the next place after the last.  ``position`` maps every cached
        # value to its place, an evicted place joins ``dead``, and the
        # oldest entry is the first place not dead.  A refresh keeps its
        # place.
        ids = row_ids[:length].tolist()
        values = table.values[row_ids[:length]].tolist()
        position = dict(zip(values, range(length)))
        dead = set()
        oldest = 0
        # Preferred victims, tried in the set's iteration order; listed
        # at the first eviction.
        sent_values: Optional[List[int]] = None
        objects = table.objects
        expires_at = table.expires_at
        soonest = math.inf
        inserted = 0
        for pseudonym in received:
            expiry = pseudonym.expires_at
            value = pseudonym.value
            if now >= expiry or value == own_value:
                continue
            place = position.get(value)
            if place is not None:
                held = ids[place]
                # The cached object itself cannot be a later copy.
                if objects[held] is not pseudonym and expiry > expires_at[held]:
                    ids[place] = table.intern(pseudonym)
                    if place < length:
                        row_ids[place] = ids[place]
                    table.release(held)
                    inserted += 1
                continue
            if len(position) >= capacity:
                if sent_values is None:
                    sent_values = list({entry.value for entry in just_sent or ()})
                for victim in sent_values:
                    if victim in position:
                        sent_values.remove(victim)
                        place = position.pop(victim)
                        break
                else:
                    while oldest in dead:
                        oldest += 1
                    place = oldest
                    del position[values[place]]
                dead.add(place)
                table.release(ids[place])
            position[value] = len(ids)
            ids.append(table.intern(pseudonym))
            values.append(value)
            if expiry < soonest:
                soonest = expiry
            inserted += 1
        if len(ids) > length:
            # Every eviction was followed by an insert, so the row never
            # got shorter and has no tail to clear; ``cache_min_exp``
            # only has to stay a lower bound, which refreshes (later
            # expiry) and evictions cannot break.
            start = length
            if dead:
                evicted = [place for place in dead if place < length]
                keep = np.ones(length, dtype=bool)
                keep[evicted] = False
                start = length - len(evicted)
                row_ids[:length].compress(keep, out=row_ids[:start])
            added = [
                ids[place] for place in range(length, len(ids)) if place not in dead
            ]
            end = start + len(added)
            row_ids[start:end] = added
            arena.cache_len[row] = end
            if soonest < arena.cache_min_exp[row]:
                arena.cache_min_exp[row] = soonest
        return inserted


class ArenaSlots:
    """The Brahms-style sampler list ``n.L`` (Section III-D2), one arena row.

    Each of the S slots holds a pair ``(P, R)``: ``P`` a sampled
    pseudonym (or empty) and ``R`` a random reference value drawn from
    ``rng`` at construction and never changed.  A received pseudonym P'
    replaces P in any slot where the slot is empty, or P' is
    numerically closer to R, or equally close but expiring later.
    Because each slot keeps the pseudonym *minimizing* |value - R| over
    everything ever received (min-wise sampling), the slot contents are
    a uniform sample of all received pseudonyms "regardless of how
    frequently any pseudonym is received" — which is what lets the
    overlay converge to a random graph although gossip delivers hub
    pseudonyms far more often.  ``size`` may be zero: well-connected
    hubs run with no pseudonym links at all.
    """

    __slots__ = ("_arena", "_row", "_size", "_sample_cache", "_by_reference")

    def __init__(
        self, arena: NodeArena, row: int, size: int, rng: np.random.Generator
    ) -> None:
        if size < 0:
            raise ProtocolError(f"slot count must be non-negative, got {size}")
        self._arena = arena
        self._row = row
        self._size = size
        arena._ensure_slot_cols(size)
        arena.slot_n[row] = size
        arena.slot_soonest[row] = math.inf
        arena.slot_refs[row, :size] = [
            random_bits(rng, PSEUDONYM_BITS) for _ in range(size)
        ]
        self._sample_cache: Optional[List[Pseudonym]] = None
        self._by_reference: Optional[Tuple[List[int], List[int], List[int]]] = None

    @property
    def size(self) -> int:
        """Number of slots S."""
        return self._size

    @property
    def references(self) -> np.ndarray:
        """The immutable reference values (read-only view)."""
        view = self._arena.slot_refs[self._row, : self._size].view()
        view.flags.writeable = False
        return view

    def _ids(self) -> np.ndarray:
        return self._arena.slot_ids[self._row, : self._size]

    def filled(self) -> int:
        """Number of non-empty slots."""
        return int((self._ids() >= 0).sum())

    def entry(self, index: int) -> Optional[Pseudonym]:
        """The pseudonym in slot ``index`` (None when empty)."""
        pid = int(self._ids()[index])
        return self._arena.pseudonyms.view(pid) if pid >= 0 else None

    def sample(self) -> List[Pseudonym]:
        """Distinct pseudonyms currently held across all slots.

        Returns a cached snapshot list (rebuilt after any slot change);
        treat it as read-only.
        """
        cached = self._sample_cache
        if cached is None:
            table = self._arena.pseudonyms
            objects = table.objects
            cached = [
                objects[pid] or table.view(pid)
                for pid in dict.fromkeys(self._ids().tolist())
                if pid >= 0
            ]
            self._sample_cache = cached
        return cached

    def expire(self, now: float) -> int:
        """Empty every slot holding an expired pseudonym; returns count."""
        arena = self._arena
        row = self._row
        if now < arena.slot_soonest[row]:
            return 0
        ids = arena.slot_ids[row, : self._size]
        # One gather; an empty slot's -1 reads the last id, unused.
        expiries = arena.pseudonyms.expires_at[ids].tolist()
        removed = 0
        soonest = math.inf
        for index, pid in enumerate(ids.tolist()):
            if pid < 0:
                continue
            expires = expiries[index]
            if expires <= now:
                self._clear_slot(index)
                removed += 1
            elif expires < soonest:
                soonest = expires
        arena.slot_soonest[row] = soonest
        if removed:
            self._sample_cache = None
        return removed

    def evict(self, pseudonym: Pseudonym) -> int:
        """Remove a specific pseudonym from all slots; returns count."""
        removed = 0
        table = self._arena.pseudonyms
        ids = self._arena.slot_ids[self._row]
        for index in range(self._size):
            pid = int(ids[index])
            if pid >= 0 and table.matches(pid, pseudonym):
                self._clear_slot(index)
                removed += 1
        if removed:
            self._sample_cache = None
        return removed

    def _clear_slot(self, index: int) -> None:
        arena = self._arena
        row = self._row
        pid = int(arena.slot_ids[row, index])
        if pid >= 0:
            arena.pseudonyms.release(pid)
        arena.slot_ids[row, index] = -1
        arena.slot_dist[row, index] = _EMPTY_DISTANCE

    def offer(self, pseudonym: Pseudonym) -> int:
        """Offer one pseudonym to every slot; returns slots replaced."""
        return self.offer_batch([pseudonym])

    def offer_batch(self, pseudonyms: Sequence[Pseudonym]) -> int:
        """Fold a received batch into the slots.

        Equivalent to offering each pseudonym in turn (the paper's
        per-receipt traversal): each slot ends up with its best
        candidate — least |value - R|, then latest expiry, then earliest
        batch position — if that candidate beats the occupant.  Returns
        the number of slots whose occupant changed.

        A slot takes a value only when |value - R| < dist, or |value -
        R| == dist and the value expires later than the occupant, so
        every filled slot that takes ``v`` has |v - R| <= ``reach``, the
        largest ``dist`` of the filled slots.  One bisect per value into
        the sorted references finds the only filled slots to test.  An
        empty slot takes the set's best value for it, whatever the gap.
        """
        size = self._size
        if size == 0 or not pseudonyms:
            return 0
        arena = self._arena
        row = self._row
        distances = arena.slot_dist[row, :size].tolist()
        table = arena.pseudonyms
        ids = arena.slot_ids[row]
        reach = max(distances)
        empty: List[int] = []
        if reach == _EMPTY_DISTANCE:
            empty = [slot for slot, gap in enumerate(distances) if gap == reach]
            reach = max((gap for gap in distances if gap != reach), default=-1)
        references, slots, by_slot = self._references()
        # Each taking slot's best candidate as (gap, -expiry, index).
        best: Dict[int, Tuple[int, float, int]] = {}
        for index, pseudonym in enumerate(pseudonyms):
            value = pseudonym.value
            position = bisect_left(references, value - reach)
            top = value + reach
            while position < size and references[position] <= top:
                gap = abs(value - references[position])
                slot = slots[position]
                position += 1
                distance = distances[slot]
                # Equally close means occupied: read its expiry.
                if gap < distance or (
                    gap == distance
                    and pseudonym.expires_at > table.expires_at[ids[slot]]
                ):
                    key = (gap, -pseudonym.expires_at, index)
                    held = best.get(slot)
                    if held is None or key < held:
                        best[slot] = key
        for slot in empty:
            reference = by_slot[slot]
            best[slot] = min(
                (abs(pseudonym.value - reference), -pseudonym.expires_at, index)
                for index, pseudonym in enumerate(pseudonyms)
            )
        if not best:
            return 0
        soonest = float(arena.slot_soonest[row])
        for slot in sorted(best):
            gap, _, index = best[slot]
            candidate = pseudonyms[index]
            current = int(ids[slot])
            ids[slot] = table.intern(candidate)
            if current >= 0:
                table.release(current)
            expiry = candidate.expires_at
            arena.slot_dist[row, slot] = gap
            if expiry < soonest:
                soonest = expiry
        arena.slot_soonest[row] = soonest
        self._sample_cache = None
        return len(best)

    def _references(self) -> Tuple[List[int], List[int], List[int]]:
        """The references sorted, their slots, and the references by slot.

        References never change after construction, so this is built
        once, on the first offer.
        """
        if self._by_reference is None:
            by_slot = self._arena.slot_refs[self._row, : self._size].tolist()
            slots = sorted(range(self._size), key=by_slot.__getitem__)
            self._by_reference = ([by_slot[slot] for slot in slots], slots, by_slot)
        return self._by_reference

    def holds(self, pseudonyms: Iterable[Pseudonym]) -> bool:
        """Whether every given pseudonym occupies at least one slot."""
        table = self._arena.pseudonyms
        ids = self._ids()
        held = {int(table.values[pid]) for pid in ids if pid >= 0}
        return all(pseudonym.value in held for pseudonym in pseudonyms)


class ArenaLinkSet:
    """``n.links`` (Section III-A): trusted plus sampled pseudonym links.

    Trusted links are static — one per trust-graph neighbor.  Pseudonym
    links follow the sampler: after every gossip exchange they become
    exactly the pseudonyms held in at least one sampler slot.  Links
    are never removed because the far end went offline ("such links
    become operational again when the corresponding nodes rejoin");
    they change only through sampling and pseudonym expiry, and the
    ``replacements_total`` / ``additions_total`` counters of those
    changes are the paper's overhead metric (Figure 9).

    Pseudonym links live in the arena link row (insertion order =
    link-table order); the small mutable trusted set stays object-side.
    ``version`` bumps whenever the pseudonym links change and
    ``trusted_version`` whenever the trusted set grows; their sum over
    all nodes keys the channel cache of
    :meth:`repro.dissemination.base.Disseminator._channel_epoch`.
    """

    __slots__ = (
        "_arena",
        "_row",
        "_trusted",
        "_trusted_list",
        "_trusted_frozen",
        "_pseudonym_list",
        "_synced_sample",
        "replacements_total",
        "additions_total",
        "version",
        "trusted_version",
    )

    def __init__(
        self, arena: NodeArena, row: int, trusted_neighbors: Iterable[int]
    ) -> None:
        self._arena = arena
        self._row = row
        self._trusted = set(trusted_neighbors)
        self._trusted_list: List[int] = sorted(self._trusted)
        self._trusted_frozen: FrozenSet[int] = frozenset(self._trusted)
        self._pseudonym_list: Optional[List[Pseudonym]] = None
        self._synced_sample: Optional[List[Pseudonym]] = None
        self.replacements_total = 0
        self.additions_total = 0
        self.version = 0
        self.trusted_version = 0

    @property
    def trusted(self) -> FrozenSet[int]:
        """Trust-graph neighbor ids.

        Static in the paper's immutable-trust-graph setting; grows only
        through :meth:`add_trusted` (node/edge additions, which the
        paper notes raise no privacy concerns).
        """
        return self._trusted_frozen

    def add_trusted(self, neighbor: int) -> bool:
        """Add a trusted link (new friend); returns False if present."""
        if neighbor in self._trusted:
            return False
        self._trusted.add(neighbor)
        self._trusted_list = sorted(self._trusted)
        self._trusted_frozen = frozenset(self._trusted)
        self.trusted_version += 1
        return True

    @property
    def trusted_degree(self) -> int:
        """Number of trusted links."""
        return len(self._trusted)

    def _ids(self) -> np.ndarray:
        arena = self._arena
        return arena.link_ids[self._row, : int(arena.link_len[self._row])]

    def pseudonym_links(self) -> List[Pseudonym]:
        """Current pseudonym-link targets (cached snapshot list; read-only)."""
        snapshot = self._pseudonym_list
        if snapshot is None:
            view = self._arena.pseudonyms.view
            snapshot = [view(int(pid)) for pid in self._ids()]
            self._pseudonym_list = snapshot
        return snapshot

    def pseudonym_degree(self) -> int:
        """Number of current pseudonym links."""
        return int(self._arena.link_len[self._row])

    def out_degree(self) -> int:
        """Total links this node maintains (trusted + pseudonym)."""
        return len(self._trusted) + self.pseudonym_degree()

    def has_pseudonym_link(self, pseudonym: Pseudonym) -> bool:
        """Whether a link to this exact pseudonym exists."""
        table = self._arena.pseudonyms
        ids = self._ids()
        hits = np.flatnonzero(table.values[ids] == pseudonym.value)
        return any(
            table.matches(int(ids[int(index)]), pseudonym) for index in hits
        )

    def update_from_sample(self, sample: Iterable[Pseudonym]) -> Tuple[int, int]:
        """Make the pseudonym links exactly match the sampler output.

        Returns ``(added, removed)``.  ``removed`` feeds the paper's
        link-replacement overhead metric: a removal happens either
        because the pseudonym expired out of every slot or because the
        sampler found numerically better pseudonyms.

        Handed the very list it last synced to — :meth:`ArenaSlots.sample`
        returns one cached list until a slot changes — there is nothing
        to do.  Only lists qualify: a generator is spent by the first
        call, so seeing it again says nothing about the links.
        """
        if sample is self._synced_sample:
            return 0, 0
        self._synced_sample = sample if type(sample) is list else None
        arena = self._arena
        table = arena.pseudonyms
        new_links = {pseudonym.value: pseudonym for pseudonym in sample}
        ids = self._ids()
        current: Dict[int, int] = dict(
            zip(table.values[ids].tolist(), ids.tolist())
        )
        removed = 0
        added = 0
        if len(new_links) != len(current) or new_links.keys() != current.keys():
            for value in [v for v in current if v not in new_links]:
                table.release(current.pop(value))
                removed += 1
        objects = table.objects
        for value, pseudonym in new_links.items():
            existing = current.get(value)
            if existing is None:
                current[value] = table.intern(pseudonym)
                added += 1
            elif objects[existing] is not pseudonym and not table.matches(
                existing, pseudonym
            ):
                current[value] = table.intern(pseudonym)
                table.release(existing)
                removed += 1
                added += 1
        if added or removed:
            row = self._row
            end = len(current)
            arena._ensure_link_cols(end)
            arena.link_ids[row, :end] = list(current.values())
            if end < len(ids):
                arena.link_ids[row, end : len(ids)] = -1
            arena.link_len[row] = end
            self._pseudonym_list = None
            self.version += 1
        self.replacements_total += removed
        self.additions_total += added
        return added, removed

    def all_targets(self) -> List[LinkTarget]:
        """Every overlay link as a :class:`LinkTarget` list."""
        targets = [LinkTarget(node_id=neighbor) for neighbor in self._trusted_list]
        targets.extend(
            LinkTarget(pseudonym=pseudonym)
            for pseudonym in self.pseudonym_links()
        )
        return targets

    def pick_random_target(
        self, rng: np.random.Generator
    ) -> Optional[LinkTarget]:
        """Select a link uniformly at random (the shuffle partner choice).

        "Periodically, n selects a link from n.links uniformly at
        random and executes a shuffling protocol with the node m at the
        other end."  Returns None when the node has no links at all.
        """
        trusted_list = self._trusted_list
        snapshot = self.pseudonym_links()
        total = len(trusted_list) + len(snapshot)
        if total == 0:
            return None
        index = int(rng.integers(0, total))
        if index < len(trusted_list):
            return LinkTarget(node_id=trusted_list[index])
        return LinkTarget(pseudonym=snapshot[index - len(trusted_list)])
