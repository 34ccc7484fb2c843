"""One deterministic overlay run spread across worker processes.

:class:`ShardedOverlay` drives the same :class:`~repro.core.batch.ShardEngine`
objects the serial :class:`~repro.core.batch.BatchOverlay` drives — but
hosts them in forked worker processes, advancing every shard in
lockstep windows of one shuffle period (conservative synchronization:
one period is the minimum cross-shard message latency, so no shard can
observe an event "from the future").  Each round is two routing hops
through the parent:

1. every worker runs ``begin_round`` for its shards and ships
   cross-shard :class:`~repro.core.batch.PairBatch` notifications;
2. after routing, every worker runs ``build_sets`` and ships
   cross-shard :class:`~repro.core.batch.SetBatch` payloads (compact
   numpy id/value/expiry/owner column batches);
3. after the second hop, every worker runs ``absorb``.

Batches between workers in the *same* process short-circuit locally and
never touch a pipe.  Engines re-sort whatever arrives into canonical
shard/initiator order, so scheduling and transport cannot change
results.

Determinism contract: the digest of a run is a function of
``(config, num_shards)`` and *nothing else* — per-shard RNG streams are
spawned from the root seed and the shard id, churn is replicated
per-process from the same spawned streams, and cross-shard batches are
merged in deterministic shard-id order.  ``ShardedOverlay(workers=N)``
is therefore byte-identical to the serial
``BatchOverlay(num_shards=S)`` for any N — pinned by the
serial-equivalence golden test in ``tests/test_shard.py``.

When ``workers`` resolves to 1 (or ``fork`` is unavailable) the whole
grid runs in-process by delegating to ``BatchOverlay(num_shards=S)`` —
same digest, no processes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..churn.batch import ShardedChurn
from ..core.batch import (
    BatchOverlay,
    PairBatch,
    SetBatch,
    ShardEngine,
    combine_shard_digests,
    ring_lattice_csr,
    shard_ranges,
    shard_stream,
    slot_count_for,
)
from ..errors import GraphError, ParallelError
from ..graphs.fastgraph import FlatSnapshot, SnapshotAnalysis
from ..rng import RandomStreams
from .engine import _WorkerHandle, fork_available

__all__ = ["ShardOptions", "ShardedOverlay"]


@dataclasses.dataclass(frozen=True)
class ShardOptions:
    """Execution policy for one :class:`ShardedOverlay`.

    ``num_shards`` is *semantic*: it selects the shard grid the digest
    is a function of.  ``workers`` is pure execution policy — any
    value produces byte-identical results; ``None`` picks
    ``min(num_shards, cpu_count)``.
    """

    num_shards: int = 4
    workers: Optional[int] = None

    def validate(self) -> None:
        """Reject inconsistent policies with a clear error."""
        if self.num_shards < 1:
            raise ParallelError("num_shards must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise ParallelError("workers must be at least 1")


def _advance_round(
    conn: Any,
    engines: Dict[int, ShardEngine],
    churn: ShardedChurn,
    now: float,
) -> None:
    """One lockstep window on this worker's shard block.

    Strict phase alternation with the parent: send hop-1 batches, block
    for the routed ones, send hop-2 batches, block again, absorb.  The
    parent drains every worker before it routes, so a worker blocked in
    ``send`` is never waited on by a parent blocked in ``send``.
    """
    churn.step()
    pairs_local: Dict[int, List[PairBatch]] = {shard: [] for shard in engines}
    pairs_remote: Dict[int, List[PairBatch]] = {}
    for shard in sorted(engines):
        for dst, batch in engines[shard].begin_round(now).items():
            target = pairs_local if dst in engines else pairs_remote
            target.setdefault(dst, []).append(batch)
    conn.send(("pairs", pairs_remote))
    tag, routed = conn.recv()
    if tag != "pairs":  # pragma: no cover - protocol invariant
        raise ParallelError(f"expected routed pairs, got {tag!r}")
    for dst, batches in routed.items():
        pairs_local.setdefault(dst, []).extend(batches)
    sets_local: Dict[int, List[SetBatch]] = {shard: [] for shard in engines}
    sets_remote: Dict[int, List[SetBatch]] = {}
    for shard in sorted(engines):
        out = engines[shard].build_sets(pairs_local[shard], now)
        for dst, batches in out.items():
            target = sets_local if dst in engines else sets_remote
            target.setdefault(dst, []).extend(batches)
    conn.send(("sets", sets_remote))
    tag, routed = conn.recv()
    if tag != "sets":  # pragma: no cover - protocol invariant
        raise ParallelError(f"expected routed sets, got {tag!r}")
    for dst, batches in routed.items():
        sets_local.setdefault(dst, []).extend(batches)
    for shard in sorted(engines):
        engines[shard].absorb(sets_local[shard], now)


def _shard_worker_main(
    conn: Any,
    config: SystemConfig,
    trusted_indptr: np.ndarray,
    trusted_indices: np.ndarray,
    num_shards: int,
    shard_lo: int,
    shard_hi: int,
    start_all_online: bool,
) -> None:
    """Worker loop hosting the contiguous shard block ``[lo, hi)``.

    Builds the *whole grid's* churn (replicated — one uniform draw per
    node per round is cheap and gives this process the full population
    online mask for reachability) but engines only for its own shards.
    Commands arrive over the pipe; any internal failure is reported as
    an ``("error", traceback)`` message so the parent can surface it.
    """
    try:
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
        slot_count = slot_count_for(config, trusted_indices)
        indptr = np.ascontiguousarray(trusted_indptr, dtype=np.int64)
        indices = np.ascontiguousarray(trusted_indices, dtype=np.int64)
        engines = {
            shard: ShardEngine(
                config, shard, bounds, slot_count, indptr, indices, churn.online
            )
            for shard in range(shard_lo, shard_hi)
        }
        round_no = 0
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            command = message[0]
            if command == "stop":
                break
            if command == "run":
                for _ in range(message[1]):
                    round_no += 1
                    _advance_round(conn, engines, churn, float(round_no))
                conn.send(("ran", round_no))
            elif command == "digest":
                conn.send(
                    (
                        "digest",
                        {
                            shard: engines[shard].digest_bytes()
                            for shard in engines
                        },
                    )
                )
            elif command == "stats":
                merged: Dict[str, int] = {}
                online = 0
                for shard in sorted(engines):
                    engine = engines[shard]
                    for key, value in engine.counters.items():
                        merged[key] = merged.get(key, 0) + value
                    online += int(engine.online.sum())
                conn.send(("stats", merged, online))
            elif command == "edges":
                online_only = message[1]
                now = float(round_no)
                ids_parts: List[np.ndarray] = []
                trust_lo_parts: List[np.ndarray] = []
                trust_hi_parts: List[np.ndarray] = []
                holder_parts: List[np.ndarray] = []
                owner_parts: List[np.ndarray] = []
                alive_parts: List[np.ndarray] = []
                for shard in sorted(engines):
                    engine = engines[shard]
                    if online_only:
                        ids_parts.append(
                            engine.lo + np.flatnonzero(engine.online)
                        )
                    else:
                        ids_parts.append(
                            np.arange(engine.lo, engine.hi, dtype=np.int64)
                        )
                    trust_lo_parts.append(engine.trust_lo)
                    trust_hi_parts.append(engine.trust_hi)
                    holder, owner, alive = engine.link_edges(now)
                    holder_parts.append(holder)
                    owner_parts.append(owner)
                    alive_parts.append(alive)
                conn.send(
                    (
                        "edges",
                        np.concatenate(ids_parts),
                        np.concatenate(trust_lo_parts),
                        np.concatenate(trust_hi_parts),
                        np.concatenate(holder_parts),
                        np.concatenate(owner_parts),
                        np.concatenate(alive_parts),
                    )
                )
            elif command == "degree":
                total = 0
                count = 0
                for shard in sorted(engines):
                    mass, online = engines[shard].degree_mass()
                    total += mass
                    count += online
                conn.send(("degree", total, count))
            elif command == "memory":
                conn.send(
                    (
                        "memory",
                        sum(
                            engines[shard].memory_bytes() for shard in engines
                        ),
                    )
                )
            else:  # pragma: no cover - protocol invariant
                raise ParallelError(f"unknown shard command {command!r}")
    except BaseException as exc:
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
            raise
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class ShardedOverlay:
    """A :class:`BatchOverlay` shard grid hosted across worker processes.

    Parameters
    ----------
    config, trusted_indptr, trusted_indices:
        As for :class:`~repro.core.batch.BatchOverlay`.
    options:
        The :class:`ShardOptions` policy; the ``num_shards`` /
        ``workers`` keywords override individual fields.
    start_all_online:
        Seat every node online instead of the stationary draw.

    The observable surface mirrors the serial engine — ``run``,
    ``state_digest``, ``stats``, ``snapshot``, ``analysis``,
    ``mean_out_degree``, ``memory_bytes`` — and every one of them
    returns exactly what ``BatchOverlay(num_shards=S)`` returns
    (``tests/test_parity_surfaces.py`` pins the signatures).  Use as a
    context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        config: SystemConfig,
        trusted_indptr: np.ndarray,
        trusted_indices: np.ndarray,
        options: Optional[ShardOptions] = None,
        start_all_online: bool = False,
        num_shards: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> None:
        options = options if options is not None else ShardOptions()
        if num_shards is not None or workers is not None:
            options = dataclasses.replace(
                options,
                num_shards=(
                    options.num_shards if num_shards is None else num_shards
                ),
                workers=options.workers if workers is None else workers,
            )
        options.validate()
        self.config = config
        self.options = options
        self.num_shards = options.num_shards
        self.round = 0
        self._closed = False
        self._local: Optional[BatchOverlay] = None
        self._handles: List[_WorkerHandle] = []
        self._worker_shards: List[Tuple[int, int]] = []
        resolved = options.workers
        if resolved is None:
            resolved = min(self.num_shards, os.cpu_count() or 1)
        resolved = min(resolved, self.num_shards)
        self.workers = max(1, resolved)
        if self.workers == 1 or not fork_available():
            self.workers = 1
            self._local = BatchOverlay(
                config,
                trusted_indptr,
                trusted_indices,
                start_all_online=start_all_online,
                num_shards=self.num_shards,
            )
            return
        indptr = np.ascontiguousarray(trusted_indptr, dtype=np.int64)
        indices = np.ascontiguousarray(trusted_indices, dtype=np.int64)
        if len(indptr) != config.num_nodes + 1:
            # Same validation BatchOverlay performs, before forking.
            raise GraphError(
                f"trusted_indptr covers {len(indptr) - 1} nodes, "
                f"config.num_nodes is {config.num_nodes}"
            )
        worker_bounds = shard_ranges(self.num_shards, self.workers)
        ctx = multiprocessing.get_context("fork")
        for worker in range(self.workers):
            shard_lo = int(worker_bounds[worker])
            shard_hi = int(worker_bounds[worker + 1])
            self._worker_shards.append((shard_lo, shard_hi))
            self._handles.append(
                _WorkerHandle(
                    ctx,
                    _shard_worker_main,
                    (
                        config,
                        indptr,
                        indices,
                        self.num_shards,
                        shard_lo,
                        shard_hi,
                        start_all_online,
                    ),
                )
            )

    @classmethod
    def build(
        cls,
        config: SystemConfig,
        extra_edges_per_node: int = 4,
        start_all_online: bool = False,
        options: Optional[ShardOptions] = None,
        num_shards: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> "ShardedOverlay":
        """Construct over a synthetic ring-lattice trust graph."""
        streams = RandomStreams(config.seed)
        indptr, indices = ring_lattice_csr(
            config.num_nodes,
            extra_edges_per_node,
            streams.substream("batch", "trust-graph"),
        )
        return cls(
            config,
            indptr,
            indices,
            options=options,
            start_all_online=start_all_online,
            num_shards=num_shards,
            workers=workers,
        )

    # ------------------------------------------------------------------
    # worker transport
    # ------------------------------------------------------------------

    def _fail(self, detail: str) -> "ParallelError":
        self.close()
        return ParallelError(f"sharded run failed: {detail}")

    def _recv(self, handle: _WorkerHandle) -> Any:
        try:
            message = handle.conn.recv()
        except (EOFError, OSError):
            exitcode = handle.process.exitcode
            raise self._fail(
                f"worker process died mid-round (exit code {exitcode})"
            ) from None
        if message[0] == "error":
            raise self._fail(f"worker raised:\n{message[1]}")
        return message

    def _send(self, handle: _WorkerHandle, message: Any) -> None:
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError):
            exitcode = handle.process.exitcode
            raise self._fail(
                f"worker pipe closed (exit code {exitcode})"
            ) from None

    def _route_hop(self, tag: str) -> None:
        """Drain one hop from every worker, regroup, send back routed.

        Workers are drained in worker order (deterministic), and every
        destination shard's batch list preserves source order only as
        far as transport — engines re-sort by source shard, so even
        this order is immaterial to results.
        """
        outbound: Dict[int, List[Any]] = {}
        for handle in self._handles:
            message = self._recv(handle)
            if message[0] != tag:  # pragma: no cover - protocol invariant
                raise self._fail(f"expected {tag!r}, got {message[0]!r}")
            for dst, batches in message[1].items():
                outbound.setdefault(dst, []).extend(batches)
        for worker, handle in enumerate(self._handles):
            shard_lo, shard_hi = self._worker_shards[worker]
            payload = {
                dst: outbound[dst]
                for dst in range(shard_lo, shard_hi)
                if dst in outbound
            }
            self._send(handle, (tag, payload))

    def _command(self, *message: Any) -> List[Any]:
        """Broadcast one command; gather one reply per worker, in order."""
        for handle in self._handles:
            self._send(handle, tuple(message))
        return [self._recv(handle) for handle in self._handles]

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance one shuffle round (all shards, in lockstep)."""
        self.run(1)

    def run(self, rounds: int) -> None:
        """Advance ``rounds`` shuffle rounds."""
        if self._local is not None:
            self._local.run(rounds)
            self.round = self._local.round
            return
        if self._closed:
            raise ParallelError("ShardedOverlay is closed")
        for handle in self._handles:
            self._send(handle, ("run", rounds))
        for _ in range(rounds):
            self._route_hop("pairs")
            self._route_hop("sets")
            self.round += 1
        for handle in self._handles:
            message = self._recv(handle)
            if message != ("ran", self.round):  # pragma: no cover
                raise self._fail(
                    f"worker desynchronized: {message!r} != round {self.round}"
                )

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def state_digest(self) -> str:
        """SHA-256 over the protocol state (determinism evidence).

        Identical to ``BatchOverlay(num_shards=S).state_digest()`` for
        the same config and grid, whatever ``workers`` was.
        """
        if self._local is not None:
            return self._local.state_digest()
        digests: Dict[int, bytes] = {}
        for reply in self._command("digest"):
            digests.update(reply[1])
        return combine_shard_digests(
            self.round, [digests[shard] for shard in range(self.num_shards)]
        )

    def stats(self) -> Dict[str, int]:
        """Cumulative counters plus the current online count."""
        if self._local is not None:
            return self._local.stats()
        merged: Dict[str, int] = {}
        online = 0
        for reply in self._command("stats"):
            for key, value in reply[1].items():
                merged[key] = merged.get(key, 0) + value
            online += reply[2]
        merged["online_nodes"] = online
        merged["round"] = self.round
        return merged

    def snapshot(self, online_only: bool = True) -> FlatSnapshot:
        """The current overlay as a :class:`FlatSnapshot`.

        Per-worker edge lists concatenate in worker order — shard
        order — which is global row order, matching the serial engine.
        """
        if self._local is not None:
            return self._local.snapshot(online_only=online_only)
        replies = self._command("edges", online_only)
        num_nodes = self.config.num_nodes
        ids = np.concatenate([reply[1] for reply in replies])
        pos = np.full(num_nodes, -1, dtype=np.int64)
        pos[ids] = np.arange(len(ids), dtype=np.int64)
        trust_a = pos[np.concatenate([reply[2] for reply in replies])]
        trust_b = pos[np.concatenate([reply[3] for reply in replies])]
        trust_keep = (trust_a >= 0) & (trust_b >= 0)
        holder = np.concatenate([reply[4] for reply in replies])
        owner = np.concatenate([reply[5] for reply in replies])
        alive = np.concatenate([reply[6] for reply in replies])
        a = pos[holder]
        b = pos[np.maximum(owner, 0)]
        keep = alive & (owner >= 0) & (owner != holder) & (a >= 0) & (b >= 0)
        return FlatSnapshot.from_edge_positions(
            ids,
            np.concatenate((trust_a[trust_keep], a[keep])),
            np.concatenate((trust_b[trust_keep], b[keep])),
        )

    def analysis(self, online_only: bool = True) -> SnapshotAnalysis:
        """Metric kernels over the current snapshot."""
        return SnapshotAnalysis(self.snapshot(online_only=online_only))

    def mean_out_degree(self) -> float:
        """Mean overlay degree over online nodes (trusted + live links)."""
        if self._local is not None:
            return self._local.mean_out_degree()
        total = 0
        count = 0
        for reply in self._command("degree"):
            total += reply[1]
            count += reply[2]
        if count == 0:
            return 0.0
        return total / count

    def memory_bytes(self) -> int:
        """Deterministic storage accounting of the *logical* state.

        Sums every shard engine plus one global online mask — the same
        accounting the serial engine reports.  Physical RSS is higher
        under multiprocessing (each worker replicates the churn grid
        and the trust CSR pages); benchmarks measure that separately.
        """
        if self._local is not None:
            return self._local.memory_bytes()
        total = sum(reply[1] for reply in self._command("memory"))
        return total + self.config.num_nodes

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop all worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        handles, self._handles = self._handles, []
        for handle in handles:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in handles:
            handle.process.join(timeout=5.0)
            handle.kill()

    def __enter__(self) -> "ShardedOverlay":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
