"""One deterministic batch-engine run spread across worker processes.

:class:`ShardedOverlay` is a :class:`~repro.core.batch.BatchOverlay`
whose :class:`~repro.core.batch.ShardEngine` objects live in forked
worker processes.  Each worker hosts a contiguous block of shards,
builds it with :func:`~repro.core.batch.build_engines` and advances it
with :func:`~repro.core.batch.advance_round` — the serial engine's own
builder and round — so a round is still one lockstep window of one
shuffle period (conservative synchronization: one period is the
minimum cross-shard message latency).  The round's ``exchange`` hook
makes its two hops go through the parent:

1. every worker runs ``begin_round`` for its shards and ships
   cross-shard :class:`~repro.core.batch.PairBatch` notifications;
2. after routing, every worker runs ``build_sets`` and ships
   cross-shard :class:`~repro.core.batch.SetBatch` payloads;
3. after the second hop, every worker runs ``absorb``.

Batches between shards of the same worker never touch a pipe.
Observation is ``BatchOverlay``'s own: it reads per-engine parts,
which here one ``("parts", method, args)`` command gathers from the
workers in shard order.

Determinism contract: the digest of a run is a function of
``(config, num_shards)`` and *nothing else*, so
``ShardOptions(workers=N)`` is byte-identical to the serial
``BatchOverlay(num_shards=S)`` for any N — pinned by the
serial-equivalence tests in ``tests/test_shard.py``.  With one worker,
or without ``fork``, the whole grid is built in-process by
``BatchOverlay.__init__``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..core.batch import (
    BatchOverlay,
    advance_round,
    build_engines,
    check_batch_inputs,
    default_trust_csr,
    shard_ranges,
)
from ..errors import ParallelError
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


def _worker_main(
    conn: Any,
    config: SystemConfig,
    trusted_indptr: np.ndarray,
    trusted_indices: np.ndarray,
    num_shards: int,
    shard_lo: int,
    shard_hi: int,
    start_all_online: bool,
) -> None:
    """Serve the shard block ``[shard_lo, shard_hi)`` until told to stop.

    ``("step", now)`` runs one window, each hop a send to the parent
    and a wait for the routed batches; ``("parts", method, args)``
    answers ``[engine.method(*args) for engine in block]``.  A failure
    is reported as ``("error", traceback)`` before the worker exits.
    """
    try:
        churn, engines = build_engines(
            config,
            trusted_indptr,
            trusted_indices,
            num_shards,
            range(shard_lo, shard_hi),
            start_all_online,
        )

        def exchange(tag: str, remote: Dict[int, list]) -> Dict[int, list]:
            conn.send((tag, remote))
            _, routed = conn.recv()
            return routed

        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            if message[0] == "step":
                advance_round(engines, churn, message[1], exchange)
                conn.send(("step", None))
            else:
                _, method, args = message
                parts = [getattr(engine, method)(*args) for engine in engines]
                conn.send(("parts", parts))
    except BaseException as exc:
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
            raise
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class ShardedOverlay(BatchOverlay):
    """A :class:`BatchOverlay` whose shard engines live in worker processes.

    Parameters
    ----------
    config, trusted_indptr, trusted_indices, start_all_online:
        As for :class:`~repro.core.batch.BatchOverlay`.
    options:
        The :class:`ShardOptions` policy: the shard grid and the worker
        count.

    Only *where the engines live* differs from the base class:
    :meth:`step` routes the round's two hops through pipes and
    :meth:`_parts` gathers per-engine results from the workers; every
    observation method is inherited.  After :meth:`close` (or a worker
    failure) every round and observation raises
    :class:`~repro.errors.ParallelError`.  Use as a context manager, or
    call :meth:`close` when done.
    """

    __slots__ = ("options", "workers", "_handles", "_blocks", "_closed")

    def __init__(
        self,
        config: SystemConfig,
        trusted_indptr: np.ndarray,
        trusted_indices: np.ndarray,
        options: Optional[ShardOptions] = None,
        start_all_online: bool = False,
    ) -> None:
        options = options if options is not None else ShardOptions()
        options.validate()
        num_shards = options.num_shards
        workers = options.workers or min(num_shards, os.cpu_count() or 1)
        self.options = options
        self.workers = min(workers, num_shards) if fork_available() else 1
        self._handles: List[_WorkerHandle] = []
        self._blocks: List[Tuple[int, int]] = []
        self._closed = False
        if self.workers == 1:
            super().__init__(
                config, trusted_indptr, trusted_indices, start_all_online, num_shards
            )
            return
        # The engines and the churn are built by the workers only.
        check_batch_inputs(config, trusted_indptr, trusted_indices)
        self.config = config
        self.num_shards = num_shards
        self.round = 0
        self.churn = None
        self.engines = []
        self._trust_edges = None
        bounds = shard_ranges(num_shards, self.workers).tolist()
        self._blocks = list(zip(bounds[:-1], bounds[1:]))
        ctx = multiprocessing.get_context("fork")
        shared = (config, trusted_indptr, trusted_indices, num_shards)
        for lo, hi in self._blocks:
            args = shared + (lo, hi, start_all_online)
            self._handles.append(_WorkerHandle(ctx, _worker_main, args))

    @classmethod
    def build(
        cls,
        config: SystemConfig,
        extra_edges_per_node: int = 4,
        start_all_online: bool = False,
        options: Optional[ShardOptions] = None,
    ) -> "ShardedOverlay":
        """Construct over a synthetic ring-lattice trust graph."""
        return cls(
            config,
            *default_trust_csr(config, extra_edges_per_node),
            options=options,
            start_all_online=start_all_online,
        )

    # ------------------------------------------------------------------
    # where the engines live
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance one shuffle round (all shards, in lockstep)."""
        self._require_open()
        if not self._handles:
            super().step()
            return
        for index in range(self.workers):
            self._send(index, ("step", float(self.round + 1)))
        self._route("pairs")
        self._route("sets")
        for index in range(self.workers):
            self._recv(index, "step")
        self.round += 1

    def _parts(self, method: str, *args: Any) -> List[Any]:
        """``engine.method(*args)`` for every engine, in shard order."""
        self._require_open()
        if not self._handles:
            return super()._parts(method, *args)
        for index in range(self.workers):
            self._send(index, ("parts", method, args))
        return [
            part for index in range(self.workers) for part in self._recv(index, "parts")
        ]

    def _route(self, tag: str) -> None:
        """One hop: gather every worker's remote batches, send each its own."""
        routed: Dict[int, List[Any]] = {}
        for index in range(self.workers):
            for dst, batches in self._recv(index, tag).items():
                routed.setdefault(dst, []).extend(batches)
        for index, (lo, hi) in enumerate(self._blocks):
            payload = {dst: routed[dst] for dst in range(lo, hi) if dst in routed}
            self._send(index, (tag, payload))

    # ------------------------------------------------------------------
    # worker transport
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ParallelError("ShardedOverlay is closed")

    def _send(self, index: int, message: Tuple[Any, ...]) -> None:
        try:
            self._handles[index].conn.send(message)
        except (BrokenPipeError, OSError):
            raise self._died(index, message[0]) from None

    def _recv(self, index: int, tag: str) -> Any:
        try:
            reply = self._handles[index].conn.recv()
        except (EOFError, OSError):
            raise self._died(index, tag) from None
        if reply[0] == "error":
            raise self._fail(index, tag, f"raised:\n{reply[1]}")
        if reply[0] != tag:  # pragma: no cover - protocol invariant
            raise self._fail(index, tag, f"answered {reply[0]!r}")
        return reply[1]

    def _died(self, index: int, phase: str) -> ParallelError:
        process = self._handles[index].process
        process.join(timeout=5.0)
        return self._fail(index, phase, f"died (exit code {process.exitcode})")

    def _fail(self, index: int, phase: str, detail: str) -> ParallelError:
        """Close every worker; the error names the block and the phase."""
        lo, hi = self._blocks[index]
        self.close()
        return ParallelError(
            f"sharded run failed in {phase!r}: "
            f"the worker for shards [{lo}, {hi}) {detail}"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop all worker processes and drop the engines (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.churn, self.engines = None, []
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
