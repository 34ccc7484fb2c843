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
  and (for batch-minted pseudonyms) owner live in parallel columns.
  Ids are reference-counted by their holders (cache rows, sampler
  slots, link rows) and returned to a free list when the last holder
  drops them, so long churned runs reuse ids instead of growing the
  table without bound.  Storage grows in fixed chunks.
* :class:`NodeArena` — per-node rows over interned ids: link sets,
  cache entries (insertion-ordered), and sampler-slot state
  (references, distances, expiries, occupants) as 2-D arrays with one
  row per node.  It also carries the vectorized **batch kernels**
  (:meth:`~NodeArena.batch_offer`, :meth:`~NodeArena.batch_cache_merge`,
  :meth:`~NodeArena.batch_links_from_slots`,
  :meth:`~NodeArena.batch_expire`) that fold whole populations of
  shuffle exchanges, slot updates, and churn transitions in a handful
  of numpy passes — the engine behind
  :class:`repro.core.batch.BatchOverlay` and the ``million_node_churn``
  benchmark.
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
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ProtocolError
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

#: Soft cap on elements per temporary in the batch kernels; row batches
#: are chunked so the (rows x candidates x slots) scratch stays bounded.
_KERNEL_CHUNK_ELEMS = 8_000_000


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
    """

    __slots__ = (
        "chunk",
        "values",
        "expires_at",
        "owners",
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
        #: Owner node id of batch-minted pseudonyms (-1 for view-interned
        #: ones; the view plane resolves owners through the overlay's
        #: omniscient registry instead).
        self.owners = np.full(chunk, -1, dtype=np.int64)
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
        equality); every additional holder bumps the refcount.
        """
        pid = self._ids.get(pseudonym)
        if pid is not None:
            self.refcounts[pid] += 1
            return pid
        pid = self._allocate()
        self.values[pid] = pseudonym.value
        self.expires_at[pid] = pseudonym.expires_at
        self.owners[pid] = -1
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

    def release_batch(self, pids: np.ndarray) -> None:
        """Vectorized :meth:`release` for a flat id array (repeats ok)."""
        if len(pids) == 0:
            return
        counts = np.bincount(pids, minlength=self.capacity)
        touched = np.flatnonzero(counts)
        self.refcounts[touched] -= counts[touched]
        freed = touched[self.refcounts[touched] <= 0]
        if len(freed) == 0:
            return
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


class NodeArena:
    """Columnar per-node protocol state plus the vectorized batch kernels.

    One row per node; rows are preallocated in ``node_chunk`` blocks
    and columns widen on demand.  The row layout:

    * sampler slots — ``slot_refs`` (immutable reference values),
      ``slot_dist`` (current |value - R|), ``slot_exp`` (occupant
      expiry), ``slot_ids`` (interned occupant, -1 empty), per-row
      ``slot_n`` and ``slot_soonest`` (expiry lower bound);
    * pseudonym cache — ``cache_ids`` insertion-ordered (oldest first),
      optional ``cache_ins`` insertion times (view plane only), per-row
      ``cache_len`` / ``cache_cap`` / ``cache_min_exp``;
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
        "track_insert_times",
        "slot_refs",
        "slot_dist",
        "slot_exp",
        "slot_ids",
        "slot_n",
        "slot_soonest",
        "cache_ids",
        "cache_ins",
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
        track_insert_times: bool = True,
    ) -> None:
        if node_chunk < 1:
            raise ProtocolError(f"node_chunk must be >= 1, got {node_chunk}")
        self.pseudonyms = pseudonyms if pseudonyms is not None else PseudonymArena()
        self.node_chunk = node_chunk
        self.num_nodes = 0
        self.track_insert_times = track_insert_times
        self.slot_refs = np.zeros((0, 0), dtype=np.int64)
        self.slot_dist = np.zeros((0, 0), dtype=np.int64)
        self.slot_exp = np.zeros((0, 0), dtype=np.float64)
        self.slot_ids = np.zeros((0, 0), dtype=np.int32)
        self.slot_n = np.zeros(0, dtype=np.int32)
        self.slot_soonest = np.zeros(0, dtype=np.float64)
        self.cache_ids = np.zeros((0, 0), dtype=np.int32)
        self.cache_ins: Optional[np.ndarray] = (
            np.zeros((0, 0), dtype=np.float64) if track_insert_times else None
        )
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
        self.slot_exp = _grown(self.slot_exp, target, self.slot_cols, -math.inf)
        self.slot_ids = _grown(self.slot_ids, target, self.slot_cols, -1)
        self.cache_ids = _grown(self.cache_ids, target, self.cache_cols, -1)
        if self.cache_ins is not None:
            self.cache_ins = _grown(self.cache_ins, target, self.cache_cols, 0.0)
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
        self.slot_exp = _grown(self.slot_exp, rows, cols, -math.inf)
        self.slot_ids = _grown(self.slot_ids, rows, cols, -1)
        self._ensure_link_cols(cols)

    def _ensure_cache_cols(self, cols: int) -> None:
        if cols <= self.cache_cols:
            return
        rows = self.row_capacity
        self.cache_ids = _grown(self.cache_ids, rows, cols, -1)
        if self.cache_ins is not None:
            self.cache_ins = _grown(self.cache_ins, rows, cols, 0.0)

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
        self, num_nodes: int, slot_count: int, cache_capacity: int
    ) -> None:
        """Claim rows ``0..num_nodes-1`` at once (fresh arenas only)."""
        if self.num_nodes != 0:
            raise ProtocolError("register_batch requires a fresh arena")
        self._ensure_rows(num_nodes)
        self._ensure_slot_cols(slot_count)
        self._ensure_cache_cols(cache_capacity)
        self.slot_n[:num_nodes] = slot_count
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

    def trusted_degrees(self) -> np.ndarray:
        """Per-node trusted degree from the CSR (zeros when unset)."""
        if self.trusted_indptr is None:
            return np.zeros(self.num_nodes, dtype=np.int64)
        return np.diff(self.trusted_indptr)

    def memory_bytes(self) -> int:
        """Deterministic storage accounting of every arena column."""
        total = 0
        for name in (
            "slot_refs",
            "slot_dist",
            "slot_exp",
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
        if self.cache_ins is not None:
            total += self.cache_ins.nbytes
        if self.trusted_indptr is not None:
            total += self.trusted_indptr.nbytes + self.trusted_indices.nbytes
        ps = self.pseudonyms
        total += ps.values.nbytes + ps.expires_at.nbytes
        total += ps.owners.nbytes + ps.refcounts.nbytes
        return total

    # ------------------------------------------------------------------
    # batch kernels (semantics identical to the per-row views; pinned
    # row-wise by tests/test_arena.py)
    # ------------------------------------------------------------------

    def _row_chunks(self, rows: np.ndarray, per_row: int) -> Iterable[np.ndarray]:
        """Split a row batch so scratch arrays stay under the soft cap."""
        if len(rows) == 0:
            return
        step = max(1, _KERNEL_CHUNK_ELEMS // max(1, per_row))
        for start in range(0, len(rows), step):
            yield rows[start : start + step]

    def batch_offer(self, rows: np.ndarray, cand_ids: np.ndarray) -> np.ndarray:
        """Fold per-row candidate batches into the rows' sampler slots.

        ``cand_ids[i]`` holds interned candidate ids for ``rows[i]``,
        padded with -1.  Exactly :meth:`ArenaSlots.offer_batch` per row:
        each slot takes the candidate minimizing |value - R| (ties to the
        latest expiry, then to the earliest batch position), replacing
        the occupant when closer, or equally close but later-expiring.
        Returns the per-row changed-slot counts.
        """
        changed_counts = np.zeros(len(rows), dtype=np.int64)
        if self.slot_cols == 0 or cand_ids.shape[1] == 0:
            return changed_counts
        ps = self.pseudonyms
        width = cand_ids.shape[1] * self.slot_cols
        offset = 0
        for chunk in self._row_chunks(rows, width):
            n = len(chunk)
            cands = cand_ids[offset : offset + n]
            valid = cands >= 0
            safe = np.where(valid, cands, 0)
            values = ps.values[safe]
            expiries = np.where(valid, ps.expires_at[safe], -math.inf)
            refs = self.slot_refs[chunk]
            dist = self.slot_dist[chunk]
            sexp = self.slot_exp[chunk]
            sids = self.slot_ids[chunk]
            slot_live = (
                np.arange(self.slot_cols)[None, :] < self.slot_n[chunk][:, None]
            )
            matrix = np.abs(values[:, :, None] - refs[:, None, :])
            matrix = np.where(valid[:, :, None], matrix, _EMPTY_DISTANCE)
            min_d = matrix.min(axis=1)
            is_minimal = (matrix == min_d[:, None, :]) & valid[:, :, None]
            masked_exp = np.where(is_minimal, expiries[:, :, None], -math.inf)
            best_rows = masked_exp.argmax(axis=1)
            best_exp = np.take_along_axis(
                masked_exp, best_rows[:, None, :], axis=1
            )[:, 0, :]
            closer = min_d < dist
            tie_later = (min_d == dist) & (best_exp > sexp)
            replace = (closer | tie_later) & slot_live & (min_d < _EMPTY_DISTANCE)
            new_ids = np.take_along_axis(safe, best_rows, axis=1).astype(np.int32)
            changed = replace & (new_ids != sids)
            if changed.any():
                self.pseudonyms.release_batch(sids[changed & (sids >= 0)])
                counts = np.bincount(
                    new_ids[changed], minlength=ps.capacity
                )
                touched = np.flatnonzero(counts)
                ps.refcounts[touched] += counts[touched]
                out_ids = np.where(changed, new_ids, sids)
                out_dist = np.where(changed, min_d, dist)
                out_exp = np.where(changed, best_exp, sexp)
                self.slot_ids[chunk] = out_ids
                self.slot_dist[chunk] = out_dist
                self.slot_exp[chunk] = out_exp
                row_changed = changed.any(axis=1)
                new_soonest = np.where(
                    changed, out_exp, math.inf
                ).min(axis=1)
                self.slot_soonest[chunk] = np.where(
                    row_changed,
                    np.minimum(self.slot_soonest[chunk], new_soonest),
                    self.slot_soonest[chunk],
                )
                changed_counts[offset : offset + n] = changed.sum(axis=1)
            offset += n
        return changed_counts

    def batch_cache_merge(
        self,
        rows: np.ndarray,
        cand_ids: np.ndarray,
        now: float,
        own_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Merge per-row received batches into the rows' caches.

        Exactly :meth:`ArenaCache.merge` with ``just_sent=None`` per row,
        assuming honestly minted (unique value) pseudonyms: expired, own, duplicate, and already-cached
        candidates are skipped; the rest append in batch order,
        evicting from the oldest end when the row is full.  Returns the
        per-row inserted counts.  Call :meth:`batch_expire` first to
        mirror the per-row merge's leading ``remove_expired``.
        """
        inserted = np.zeros(len(rows), dtype=np.int64)
        if cand_ids.shape[1] == 0 or len(rows) == 0:
            return inserted
        ps = self.pseudonyms
        k = cand_ids.shape[1]
        cols = self.cache_cols
        width = k * (cols + k)
        offset = 0
        for chunk in self._row_chunks(rows, width):
            n = len(chunk)
            cands = cand_ids[offset : offset + n]
            valid = cands >= 0
            safe = np.where(valid, cands, 0)
            valid &= ps.expires_at[safe] > now
            if own_ids is not None:
                valid &= cands != own_ids[offset : offset + n][:, None]
            # Dedup within the batch, keeping the first occurrence.
            for j in range(1, k):
                dup = (cands[:, j : j + 1] == cands[:, :j]) & valid[:, :j]
                valid[:, j] &= ~dup.any(axis=1)
            # Skip candidates already cached (equal id = equal pseudonym).
            old = self.cache_ids[chunk]
            old_live = np.arange(cols)[None, :] < self.cache_len[chunk][:, None]
            present = (cands[:, :, None] == old[:, None, :]) & old_live[:, None, :]
            valid &= ~present.any(axis=2)
            counts = valid.sum(axis=1)
            if counts.any():
                # Append survivors, dropping overflow from the oldest end:
                # sequential insert-with-oldest-eviction reduces to "keep
                # the newest cap entries of old + new".
                scratch = np.concatenate(
                    (old, np.where(valid, cands, -1)), axis=1
                )
                keep = np.concatenate((old_live, valid), axis=1)
                pos = np.cumsum(keep, axis=1)
                total = pos[:, -1]
                cap = self.cache_cap[chunk]
                drop = np.maximum(0, total - cap)
                evict = keep & (pos <= drop[:, None])
                keep &= ~evict
                if evict.any():
                    ps.release_batch(scratch[evict])
                order = np.argsort(~keep, axis=1, kind="stable")
                packed = np.take_along_axis(
                    np.where(keep, scratch, -1), order, axis=1
                )[:, :cols]
                self.cache_ids[chunk] = packed
                if self.cache_ins is not None:
                    old_ins = self.cache_ins[chunk]
                    ins = np.concatenate(
                        (old_ins, np.full((n, k), now)), axis=1
                    )
                    self.cache_ins[chunk] = np.take_along_axis(
                        ins, order, axis=1
                    )[:, :cols]
                self.cache_len[chunk] = np.minimum(total, cap)
                appended = safe[valid]
                acq = np.bincount(appended, minlength=ps.capacity)
                touched = np.flatnonzero(acq)
                ps.refcounts[touched] += acq[touched]
                new_min = np.where(valid, ps.expires_at[safe], math.inf).min(axis=1)
                self.cache_min_exp[chunk] = np.minimum(
                    self.cache_min_exp[chunk], new_min
                )
                inserted[offset : offset + n] = counts
            offset += n
        return inserted

    def batch_links_from_slots(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Re-derive each row's pseudonym links from its sampler slots.

        Exactly ``links.update_from_sample(slots.sample())`` per row:
        the link row becomes the distinct slot occupants in slot order,
        retained entries keep their link-table position, new entries
        append in sample order.  Returns per-row (added, removed)
        counts — the paper's link-replacement overhead metric.
        """
        added = np.zeros(len(rows), dtype=np.int64)
        removed = np.zeros(len(rows), dtype=np.int64)
        if len(rows) == 0:
            return added, removed
        ps = self.pseudonyms
        scols = self.slot_cols
        lcols = self.link_cols
        width = (scols + lcols) * max(scols, lcols)
        offset = 0
        for chunk in self._row_chunks(rows, width):
            n = len(chunk)
            slots = self.slot_ids[chunk]
            occupied = slots >= 0
            # Distinct occupants, first slot occurrence wins.
            sample = np.where(occupied, slots, -1)
            for j in range(1, scols):
                dup = (sample[:, j : j + 1] == sample[:, :j]) & occupied[:, :j]
                sample[:, j] = np.where(dup.any(axis=1), -1, sample[:, j])
            sample_live = sample >= 0
            old = self.link_ids[chunk]
            old_live = np.arange(lcols)[None, :] < self.link_len[chunk][:, None]
            in_new = (
                (old[:, :, None] == sample[:, None, :]) & sample_live[:, None, :]
            ).any(axis=2) & old_live
            in_old = (
                (sample[:, :, None] == old[:, None, :]) & old_live[:, None, :]
            ).any(axis=2) & sample_live
            dropped = old_live & ~in_new
            fresh = sample_live & ~in_old
            row_removed = dropped.sum(axis=1)
            row_added = fresh.sum(axis=1)
            dirty = (row_removed > 0) | (row_added > 0)
            if dirty.any():
                ps.release_batch(old[dropped])
                appended = sample[fresh]
                acq = np.bincount(appended, minlength=ps.capacity)
                touched = np.flatnonzero(acq)
                ps.refcounts[touched] += acq[touched]
                # Retained links keep their order, fresh ones append.
                scratch = np.concatenate(
                    (np.where(in_new, old, -1), np.where(fresh, sample, -1)),
                    axis=1,
                )
                keep = scratch >= 0
                order = np.argsort(~keep, axis=1, kind="stable")
                packed = np.take_along_axis(scratch, order, axis=1)[:, :lcols]
                self.link_ids[chunk] = packed
                self.link_len[chunk] = keep.sum(axis=1)
            added[offset : offset + n] = row_added
            removed[offset : offset + n] = row_removed
            offset += n
        return added, removed

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
                self.slot_exp[slot_rows] = np.where(
                    dead, -math.inf, self.slot_exp[slot_rows]
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
            if self.cache_ins is not None:
                self.cache_ins[cache_rows] = np.take_along_axis(
                    self.cache_ins[cache_rows], order, axis=1
                )
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

        ``keys`` is a ``(len(rows), cache_cols)`` array of random floats
        supplied by the caller (the arena draws no randomness itself);
        each row returns the entries holding its ``count`` smallest
        keys — a uniform without-replacement sample.  Padded with -1.
        """
        if count <= 0 or self.cache_cols == 0:
            return np.full((len(rows), max(count, 0)), -1, dtype=np.int32)
        ids = self.cache_ids[rows]
        live = np.arange(self.cache_cols)[None, :] < self.cache_len[rows][:, None]
        ranked = np.where(live, keys, math.inf)
        order = np.argsort(ranked, axis=1, kind="stable")[:, :count]
        picked = np.take_along_axis(np.where(live, ids, -1), order, axis=1)
        return picked.astype(np.int32)


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
    (oldest first) with parallel insertion times.
    """

    __slots__ = ("_arena", "_row")

    def __init__(self, arena: NodeArena, row: int, capacity: int) -> None:
        if capacity < 1:
            raise ProtocolError(f"cache capacity must be >= 1, got {capacity}")
        if arena.cache_ins is None:
            raise ProtocolError(
                "cache views need an arena with track_insert_times=True"
            )
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
        ins = arena.cache_ins[row]
        ins[position : length - 1] = ins[position + 1 : length]
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
            kept_ins = arena.cache_ins[row, :length][keep].copy()
            arena.cache_ins[row, : len(kept)] = kept_ins
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
        """The ``count`` most recently inserted unexpired pseudonyms.

        Used by the naive cache-based sampler ablation (no Brahms
        slots): links follow whatever arrived last, which
        over-represents frequently gossiped (hub) pseudonyms.
        """
        self.remove_expired(now)
        arena = self._arena
        length = int(arena.cache_len[self._row])
        inserted = arena.cache_ins[self._row, :length]
        order = sorted(
            range(length), key=lambda index: inserted[index], reverse=True
        )
        ids = arena.cache_ids[self._row]
        view = arena.pseudonyms.view
        return [view(int(ids[index])) for index in order[:count]]

    def select_for_shuffle(
        self, rng: np.random.Generator, count: int, now: float
    ) -> List[Pseudonym]:
        """Uniformly sample up to ``count`` unexpired cached pseudonyms."""
        self.remove_expired(now)
        ids = self._ids()
        view = self._arena.pseudonyms.view
        if count < len(ids):
            ids = ids[rng.choice(len(ids), size=count, replace=False)]
        return [view(pid) for pid in ids.tolist()]

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

        Costs one read of the row and at most one write-back, whatever
        the batch size (``docs/node_plane.md``, per-receipt cost).
        """
        self.remove_expired(now)
        arena = self._arena
        row = self._row
        table = arena.pseudonyms
        length = int(arena.cache_len[row])
        capacity = int(arena.cache_cap[row])
        ids = arena.cache_ids[row, :length]
        # The row, read once: value -> (id, inserted_at), oldest first.
        # A dict keeps that order the way the row does: a refreshed value
        # keeps its place, an evicted one closes the gap, an insert
        # appends.
        entries = dict(
            zip(
                table.values[ids].tolist(),
                zip(ids.tolist(), arena.cache_ins[row, :length].tolist()),
            )
        )
        # Preferred victims, tried in the set's iteration order.
        sent_values = (
            list({pseudonym.value for pseudonym in just_sent}) if just_sent else []
        )
        expires_at = table.expires_at
        soonest = math.inf
        inserted = 0
        for pseudonym in received:
            expiry = pseudonym.expires_at
            value = pseudonym.value
            if now >= expiry or value == own_value:
                continue
            held = entries.get(value)
            if held is not None:
                if expiry > expires_at[held[0]]:
                    entries[value] = (table.intern(pseudonym), held[1])
                    table.release(held[0])
                    inserted += 1
                continue
            if len(entries) >= capacity:
                for victim in sent_values:
                    if victim in entries:
                        sent_values.remove(victim)
                        break
                else:
                    if not entries:
                        break  # nothing to evict: the batch ends here
                    victim = next(iter(entries))  # the oldest
                table.release(entries.pop(victim)[0])
            entries[value] = (table.intern(pseudonym), now)
            if expiry < soonest:
                soonest = expiry
            inserted += 1
        if inserted:
            # One write-back.  Every eviction above was followed by an
            # insert, so the row never got shorter and has no tail to
            # clear; ``cache_min_exp`` only has to stay a lower bound,
            # which refreshes (later expiry) and evictions cannot break.
            new_ids, inserted_at = zip(*entries.values())
            arena.cache_ids[row, : len(new_ids)] = new_ids
            arena.cache_ins[row, : len(new_ids)] = inserted_at
            arena.cache_len[row] = len(new_ids)
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

    __slots__ = ("_arena", "_row", "_size", "_sample_cache")

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
            view = self._arena.pseudonyms.view
            seen = set()
            cached = []
            for pid in self._ids().tolist():
                if pid >= 0 and pid not in seen:
                    seen.add(pid)
                    cached.append(view(pid))
            self._sample_cache = cached
        return cached

    def expire(self, now: float) -> int:
        """Empty every slot holding an expired pseudonym; returns count."""
        arena = self._arena
        row = self._row
        if now < arena.slot_soonest[row]:
            return 0
        table = arena.pseudonyms
        removed = 0
        soonest = math.inf
        ids = arena.slot_ids[row]
        for index in range(self._size):
            pid = int(ids[index])
            if pid < 0:
                continue
            expires = float(table.expires_at[pid])
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
        arena.slot_exp[row, index] = -math.inf

    def offer(self, pseudonym: Pseudonym) -> int:
        """Offer one pseudonym to every slot; returns slots replaced."""
        return self.offer_batch([pseudonym])

    def offer_batch(self, pseudonyms: Sequence[Pseudonym]) -> int:
        """Fold a received batch into the slots.

        Equivalent to offering each pseudonym in turn (the paper's
        per-receipt traversal), evaluated with one (batch x S) distance
        matrix: for each slot the winning candidate is the received
        pseudonym with minimal |value - R|, ties broken by latest
        expiry then earliest batch position.  Returns the number of
        slots whose occupant changed.
        """
        if self._size == 0 or not pseudonyms:
            return 0
        arena = self._arena
        row = self._row
        size = self._size
        values = np.array(
            [pseudonym.value for pseudonym in pseudonyms], dtype=np.int64
        )
        expiries = np.array(
            [pseudonym.expires_at for pseudonym in pseudonyms], dtype=np.float64
        )
        references = arena.slot_refs[row, :size]
        distances = arena.slot_dist[row, :size]
        slot_expiries = arena.slot_exp[row, :size]
        # Values are < 2^63 so the signed difference never overflows int64.
        distance_matrix = np.abs(values[:, None] - references[None, :])
        min_distances = distance_matrix.min(axis=0)
        is_minimal = distance_matrix == min_distances[None, :]
        masked_expiries = np.where(is_minimal, expiries[:, None], -np.inf)
        best_rows = masked_expiries.argmax(axis=0)
        best_expiries = masked_expiries[best_rows, np.arange(size)]

        closer = min_distances < distances
        tie_later = (min_distances == distances) & (best_expiries > slot_expiries)
        replace = np.flatnonzero(closer | tie_later).tolist()
        if not replace:
            return 0

        table = arena.pseudonyms
        changed = 0
        soonest = float(arena.slot_soonest[row])
        ids = arena.slot_ids[row]
        for index in replace:
            candidate = pseudonyms[int(best_rows[index])]
            current = int(ids[index])
            if current >= 0 and table.matches(current, candidate):
                continue
            ids[index] = table.intern(candidate)
            if current >= 0:
                table.release(current)
            arena.slot_dist[row, index] = int(min_distances[index])
            expiry = float(best_expiries[index])
            arena.slot_exp[row, index] = expiry
            if expiry < soonest:
                soonest = expiry
            changed += 1
        if changed:
            arena.slot_soonest[row] = soonest
            self._sample_cache = None
        return changed

    def refresh_distances(self) -> None:
        """Recompute cached distances from entries (defensive resync).

        Not needed in normal operation; exposed so property-based tests
        can verify the cached columns always match the entries.
        """
        arena = self._arena
        row = self._row
        table = arena.pseudonyms
        soonest = math.inf
        ids = arena.slot_ids[row]
        for index in range(self._size):
            pid = int(ids[index])
            if pid < 0:
                arena.slot_dist[row, index] = _EMPTY_DISTANCE
                arena.slot_exp[row, index] = -math.inf
            else:
                value = int(table.values[pid])
                expires = float(table.expires_at[pid])
                arena.slot_dist[row, index] = abs(
                    value - int(arena.slot_refs[row, index])
                )
                arena.slot_exp[row, index] = expires
                if expires < soonest:
                    soonest = expires
        arena.slot_soonest[row] = soonest
        self._sample_cache = None

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
    ``trusted_version`` whenever the trusted set grows, so the
    overlay's incremental snapshot store re-reads only changed rows.
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

    def link_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, expiries)`` columns of the current pseudonym links.

        The snapshot store's columnar fast path: resolves owners and
        filters expiry without materializing pseudonym objects.
        """
        ids = self._ids()
        table = self._arena.pseudonyms
        return table.values[ids], table.expires_at[ids]

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
        ids = self._ids().tolist()
        current: Dict[int, int] = {
            int(table.values[pid]): pid for pid in ids
        }
        removed = 0
        added = 0
        if len(new_links) != len(current) or new_links.keys() != current.keys():
            for value in [v for v in current if v not in new_links]:
                table.release(current.pop(value))
                removed += 1
        for value, pseudonym in new_links.items():
            existing = current.get(value)
            if existing is None:
                current[value] = table.intern(pseudonym)
                added += 1
            elif not table.matches(existing, pseudonym):
                current[value] = table.intern(pseudonym)
                table.release(existing)
                removed += 1
                added += 1
        if added or removed:
            row = self._row
            arena._ensure_link_cols(len(current))
            new_ids = list(current.values())
            arena.link_ids[row, : len(new_ids)] = new_ids
            arena.link_ids[row, len(new_ids) : arena.link_cols] = -1
            arena.link_len[row] = len(new_ids)
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
