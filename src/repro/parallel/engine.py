"""Fault-tolerant multiprocess task execution.

:func:`run_tasks` shards :class:`~repro.parallel.tasks.TaskSpec`
objects across a pool of forked worker processes and returns one
:class:`~repro.parallel.tasks.TaskRecord` per task, **ordered by grid
index** regardless of completion order.  The pool provides the three
fault-tolerance guarantees the sweep engine is built on:

* **Crash isolation** — a worker that dies (segfault, OOM kill,
  ``os._exit``) fails at most the one task it was running; the parent
  spawns a replacement worker and the run continues.
* **Timeouts** — with an injected clock, a task that exceeds its
  per-task timeout gets its worker killed and the task is retried.
* **Bounded retries** — every failure mode (exception, timeout, crash)
  consumes one attempt; a task that exhausts ``max_attempts`` is
  reported as a structured :class:`TaskFailure`, never an unhandled
  exception in the parent.

Determinism contract: the engine passes each task's payload to a pure
experiment function and re-orders results by index, so worker count and
scheduling interleaving cannot change what a run returns.  The engine
itself reads no clock (rule DET003) — callers inject one when they want
durations or timeout enforcement.

Workers are started with the ``fork`` start method, so experiment
callables may be closures and inherit memoized parent state (e.g. trust
graphs built before the fan-out).  Where ``fork`` is unavailable, tasks
run serially in-process with the same retry/record semantics.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from ..errors import ParallelError
from .tasks import (
    STATUS_DONE,
    STATUS_FAILED,
    Clock,
    TaskFailure,
    TaskRecord,
    TaskSpec,
    outcome_digest,
)

__all__ = ["PoolOptions", "run_tasks", "parallel_map", "fork_available"]

#: Exit signal understood by the worker loop.
_STOP = ("stop",)


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclasses.dataclass(frozen=True)
class PoolOptions:
    """Execution policy for one :func:`run_tasks` call."""

    #: Worker process count; 1 (or no ``fork``) runs tasks in-process.
    workers: int = 1
    #: Per-task wall-clock timeout in seconds; requires ``clock``.
    timeout: Optional[float] = None
    #: Total tries per task across all failure kinds (>= 1).
    max_attempts: int = 3
    #: Base of the exponential retry backoff (seconds).
    backoff_base: float = 0.05
    #: Monotonic clock for durations and timeout enforcement; ``None``
    #: disables both (the deterministic library default).
    clock: Optional[Clock] = None
    #: Sleep used between retries; defaults to ``time.sleep``.
    sleep: Optional[Callable[[float], None]] = None

    def validate(self) -> None:
        """Reject inconsistent policies with a clear error."""
        if self.workers < 1:
            raise ParallelError("workers must be at least 1")
        if self.max_attempts < 1:
            raise ParallelError("max_attempts must be at least 1")
        if self.backoff_base < 0:
            raise ParallelError("backoff_base must be non-negative")
        if self.timeout is not None:
            if self.timeout <= 0:
                raise ParallelError("timeout must be positive")
            if self.clock is None:
                raise ParallelError(
                    "a timeout needs an injected clock (e.g. "
                    "time.perf_counter); pass PoolOptions(clock=...)"
                )


def _describe_exception(exc: BaseException) -> TaskFailure:
    return TaskFailure(
        kind="exception",
        message=str(exc) or type(exc).__name__,
        exception_type=type(exc).__name__,
        traceback=traceback.format_exc(),
    )


def _worker_main(
    conn, runner: Callable[[Any], Any], clock: Optional[Clock]
) -> None:
    """Worker loop: receive tasks, run them, send results or errors.

    Any exception from ``runner`` is caught and reported as data so the
    worker survives for the next task; interrupts and explicit exits
    still propagate (they mean "stop the process", not "task failed").
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, index, payload = message
        started = clock() if clock is not None else None
        try:
            outcome = runner(payload)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            duration = clock() - started if started is not None else None
            failure = _describe_exception(exc)
            conn.send(("error", index, failure, duration))
            continue
        duration = clock() - started if started is not None else None
        try:
            conn.send(("ok", index, outcome, duration))
        except (TypeError, ValueError, AttributeError, pickle.PicklingError) as exc:
            conn.send(
                (
                    "error",
                    index,
                    TaskFailure(
                        kind="exception",
                        message=f"task outcome is not picklable: {exc}",
                        exception_type=type(exc).__name__,
                    ),
                    duration,
                )
            )
    conn.close()


class _WorkerHandle:
    """Parent-side view of one worker process.

    Generic over the worker entry point: ``target`` is called as
    ``target(child_conn, *args)`` in the forked child.  The sweep pool
    uses :func:`_worker_main`; the sharded overlay driver
    (:mod:`repro.parallel.shard`) reuses the same handle with its own
    shard-server loop.
    """

    __slots__ = ("conn", "process", "spec", "deadline")

    def __init__(self, ctx, target, args) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=target, args=(child_conn,) + tuple(args), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.spec: Optional[TaskSpec] = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.spec is not None

    def kill(self) -> None:
        """Terminate the worker process unconditionally."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - stuck in kernel
                self.process.kill()
                self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def stop(self) -> None:
        """Ask the worker to exit cleanly, then make sure it did."""
        try:
            self.conn.send(_STOP)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        self.kill()


def _run_serial(
    runner: Callable[[Any], Any],
    specs: Sequence[TaskSpec],
    options: PoolOptions,
    on_record: Optional[Callable[[TaskRecord], None]],
) -> List[TaskRecord]:
    """In-process execution with the same retry/record semantics.

    Used for ``workers=1`` and platforms without ``fork``.  Timeouts
    cannot be enforced without process isolation and are ignored here.
    """
    sleep = options.sleep if options.sleep is not None else time.sleep
    clock = options.clock
    records: List[TaskRecord] = []
    for spec in specs:
        attempts = 0
        record: Optional[TaskRecord] = None
        while record is None:
            attempts += 1
            started = clock() if clock is not None else None
            try:
                outcome = runner(spec.payload)
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                if attempts >= options.max_attempts:
                    record = TaskRecord(
                        spec=spec,
                        status=STATUS_FAILED,
                        failure=_describe_exception(exc),
                        attempts=attempts,
                    )
                else:
                    sleep(options.backoff_base * (2 ** (attempts - 1)))
            else:
                duration = clock() - started if started is not None else None
                record = TaskRecord(
                    spec=spec,
                    status=STATUS_DONE,
                    outcome=outcome,
                    attempts=attempts,
                    duration_s=duration,
                    digest=outcome_digest(outcome),
                )
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


class _PoolRun:
    """State of one parallel :func:`run_tasks` invocation."""

    def __init__(self, ctx, runner, specs, options, on_record) -> None:
        self._ctx = ctx
        self._runner = runner
        self._options = options
        self._on_record = on_record
        self._sleep = options.sleep if options.sleep is not None else time.sleep
        self._pending: Deque[TaskSpec] = deque(specs)
        self._attempts: Dict[int, int] = {spec.index: 0 for spec in specs}
        self._records: Dict[int, TaskRecord] = {}
        self._total = len(specs)
        size = min(options.workers, max(1, self._total))
        self._workers: List[_WorkerHandle] = [self._spawn() for _ in range(size)]

    def _spawn(self) -> _WorkerHandle:
        return _WorkerHandle(
            self._ctx, _worker_main, (self._runner, self._options.clock)
        )

    # -- bookkeeping ---------------------------------------------------

    def _finish(self, record: TaskRecord) -> None:
        self._records[record.spec.index] = record
        if self._on_record is not None:
            self._on_record(record)

    def _retry_or_fail(self, spec: TaskSpec, failure: TaskFailure) -> None:
        attempts = self._attempts[spec.index]
        if attempts >= self._options.max_attempts:
            self._finish(
                TaskRecord(
                    spec=spec,
                    status=STATUS_FAILED,
                    failure=failure,
                    attempts=attempts,
                )
            )
        else:
            # Bounded exponential backoff; workers already running keep
            # making progress while the parent waits.
            self._sleep(self._options.backoff_base * (2 ** (attempts - 1)))
            self._pending.appendleft(spec)

    # -- dispatch and completion ---------------------------------------

    def _dispatch(self) -> None:
        for worker in self._workers:
            if worker.busy or not self._pending:
                continue
            spec = self._pending.popleft()
            self._attempts[spec.index] += 1
            sent = False
            while not sent:
                try:
                    worker.conn.send(("task", spec.index, spec.payload))
                    sent = True
                except (BrokenPipeError, OSError):
                    # The idle worker died between tasks; replace it.
                    worker.kill()
                    replacement = self._spawn()
                    self._workers[self._workers.index(worker)] = replacement
                    worker = replacement
            worker.spec = spec
            if self._options.timeout is not None and self._options.clock is not None:
                worker.deadline = self._options.clock() + self._options.timeout
            else:
                worker.deadline = None

    def _replace(self, worker: _WorkerHandle) -> None:
        worker.kill()
        self._workers[self._workers.index(worker)] = self._spawn()

    def _handle_message(self, worker: _WorkerHandle, message) -> None:
        spec = worker.spec
        worker.spec = None
        worker.deadline = None
        assert spec is not None
        status, index, body, duration = message
        if index != spec.index:  # pragma: no cover - protocol invariant
            raise ParallelError(
                f"worker answered task {index}, expected {spec.index}"
            )
        if status == "ok":
            self._finish(
                TaskRecord(
                    spec=spec,
                    status=STATUS_DONE,
                    outcome=body,
                    attempts=self._attempts[spec.index],
                    duration_s=duration,
                    digest=outcome_digest(body),
                )
            )
        else:
            self._retry_or_fail(spec, body)

    def _handle_crash(self, worker: _WorkerHandle) -> None:
        spec = worker.spec
        worker.spec = None
        exitcode = worker.process.exitcode
        self._replace(worker)
        if spec is None:  # pragma: no cover - idle worker died
            return
        self._retry_or_fail(
            spec,
            TaskFailure(
                kind="crash",
                message=(
                    f"worker process died while running task {spec.key!r} "
                    f"(exit code {exitcode})"
                ),
            ),
        )

    def _handle_timeout(self, worker: _WorkerHandle) -> None:
        spec = worker.spec
        worker.spec = None
        assert spec is not None
        self._replace(worker)
        self._retry_or_fail(
            spec,
            TaskFailure(
                kind="timeout",
                message=(
                    f"task {spec.key!r} exceeded the {self._options.timeout:g}s "
                    "timeout and its worker was killed"
                ),
            ),
        )

    def _poll_timeout(self) -> Optional[float]:
        """How long the wait may block before a deadline check is due."""
        clock = self._options.clock
        if clock is None:
            return None
        deadlines = [w.deadline for w in self._workers if w.deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - clock())

    def _expire_deadlines(self) -> None:
        clock = self._options.clock
        if clock is None:
            return
        now = clock()
        for worker in list(self._workers):
            if worker.busy and worker.deadline is not None and now >= worker.deadline:
                self._handle_timeout(worker)

    # -- main loop -----------------------------------------------------

    def run(self) -> List[TaskRecord]:
        try:
            while len(self._records) < self._total:
                self._dispatch()
                busy = [w for w in self._workers if w.busy]
                if not busy:  # pragma: no cover - defensive
                    raise ParallelError("pool stalled with unfinished tasks")
                ready = mp_connection.wait(
                    [w.conn for w in busy], timeout=self._poll_timeout()
                )
                by_conn = {w.conn: w for w in busy}
                for conn in ready:
                    worker = by_conn[conn]
                    if not worker.busy:
                        continue  # already handled this round
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        self._handle_crash(worker)
                        continue
                    self._handle_message(worker, message)
                self._expire_deadlines()
        finally:
            for worker in self._workers:
                worker.stop()
        return [self._records[spec_index] for spec_index in sorted(self._records)]


def run_tasks(
    runner: Callable[[Any], Any],
    specs: Sequence[TaskSpec],
    options: Optional[PoolOptions] = None,
    on_record: Optional[Callable[[TaskRecord], None]] = None,
) -> List[TaskRecord]:
    """Execute ``runner(spec.payload)`` for every spec; return records.

    Records come back sorted by ``spec.index`` — never by completion
    order — so aggregation downstream is deterministic.  ``on_record``
    (the ledger hook) fires once per task *in completion order* as soon
    as its fate is decided.

    ``runner`` must be a pure function of its payload (plus the seed
    embedded in it); with forked workers it may be a closure and may
    read memoized parent state built before this call.
    """
    options = options if options is not None else PoolOptions()
    options.validate()
    indices = [spec.index for spec in specs]
    if len(set(indices)) != len(indices):
        raise ParallelError("task indices must be unique")
    if not specs:
        return []
    if options.workers == 1 or not fork_available():
        return _run_serial(runner, specs, options, on_record)
    ctx = multiprocessing.get_context("fork")
    return _PoolRun(ctx, runner, specs, options, on_record).run()


def parallel_map(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int,
    timeout: Optional[float] = None,
    max_attempts: int = 1,
    clock: Optional[Clock] = None,
) -> List[Any]:
    """Ordered fault-isolated map: ``[func(x) for x in items]``.

    The figure harnesses use this to fan their independent overlay runs
    across workers; any ultimately-failed item raises
    :class:`ParallelError` naming the failures.
    """
    specs = [
        TaskSpec(index=i, key=str(i), payload=item)
        for i, item in enumerate(items)
    ]
    records = run_tasks(
        func,
        specs,
        PoolOptions(
            workers=workers,
            timeout=timeout,
            max_attempts=max_attempts,
            clock=clock,
        ),
    )
    failures = [record for record in records if not record.ok]
    if failures:
        details = "; ".join(
            f"item {record.spec.index}: {record.failure.summary()}"
            for record in failures
            if record.failure is not None
        )
        raise ParallelError(f"{len(failures)} parallel task(s) failed: {details}")
    return [record.outcome for record in records]
