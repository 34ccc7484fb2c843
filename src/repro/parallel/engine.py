"""An ordered map over independent points, fanned out to forked workers.

:func:`parallel_map` is ``[func(item) for item in items]`` run on a pool
of forked worker processes: each idle worker takes the next item, and
results are placed by input index, so completion order never reaches the
caller.  ``func`` must be a pure function of its item (the repro
determinism contract); it is inherited at fork time rather than pickled,
so closures work and memoized parent state (e.g. trust graphs built
before the call) is shared read-only.

Failures are loud: the first item that raises, or whose worker dies,
raises :class:`~repro.errors.ParallelError` naming the item, and every
worker is reaped before it propagates.  There are no retries — a pure
function that raised once raises again.  With one worker, at most one
item, or no ``fork``, the map runs in-process with the same errors.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..errors import ParallelError

__all__ = ["fork_available", "parallel_map"]


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class _WorkerHandle:
    """Parent-side view of one worker process.

    Generic over the worker entry point: ``target`` is called as
    ``target(child_conn, *args)`` in the forked child.  :func:`parallel_map`
    uses :func:`_map_worker`; the sharded overlay driver
    (:mod:`repro.parallel.shard`) reuses the same handle with its own
    shard-server loop.
    """

    __slots__ = ("conn", "process")

    def __init__(self, ctx, target, args) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=target, args=(child_conn,) + tuple(args), daemon=True
        )
        self.process.start()
        child_conn.close()

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


def _map_worker(conn, func: Callable[[Any], Any]) -> None:
    """Worker loop: receive ``(item,)``, answer ``(ok, outcome, traceback)``.

    An exception from ``func`` is sent back as its description and
    traceback text; ``None`` (or a closed pipe) ends the loop.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        try:
            reply = (True, func(message[0]), "")
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise  # "stop the process", not "the item failed"
            reply = (False, _describe(exc), traceback.format_exc())
        try:
            conn.send(reply)
        except (TypeError, ValueError, AttributeError, pickle.PicklingError) as exc:
            # Pickling happens before any byte is written, so the pipe
            # is still clean for this report.
            conn.send((False, f"outcome is not picklable ({_describe(exc)})", ""))
    conn.close()


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _died(handle: _WorkerHandle, index: int) -> ParallelError:
    handle.process.join(timeout=5.0)
    return ParallelError(
        f"item {index}: worker process died (exit code {handle.process.exitcode})"
    )


def parallel_map(
    func: Callable[[Any], Any], items: Sequence[Any], workers: int
) -> List[Any]:
    """``[func(item) for item in items]``, on up to ``workers`` processes.

    Raises :class:`ParallelError` if ``workers < 1``, if ``func`` raises
    (naming the item index, the exception, and the worker's traceback),
    if a worker dies, or if an outcome cannot be pickled back.
    """
    if workers < 1:
        raise ParallelError(f"workers must be at least 1, got {workers}")
    items = list(items)
    if workers == 1 or len(items) <= 1 or not fork_available():
        results = []
        for index, item in enumerate(items):
            try:
                results.append(func(item))
            except Exception as exc:
                raise ParallelError(f"item {index}: {_describe(exc)}") from exc
        return results

    ctx = multiprocessing.get_context("fork")
    handles: List[_WorkerHandle] = []
    busy: Dict[Any, Tuple[_WorkerHandle, int]] = {}  # conn -> worker, item
    outcomes: Dict[int, Any] = {}
    try:
        for _ in range(min(workers, len(items))):
            handles.append(_WorkerHandle(ctx, _map_worker, (func,)))
        idle = list(reversed(handles))
        next_index = 0
        while len(outcomes) < len(items):
            while idle and next_index < len(items):
                handle = idle.pop()
                try:
                    handle.conn.send((items[next_index],))
                except (BrokenPipeError, OSError):
                    raise _died(handle, next_index) from None
                busy[handle.conn] = (handle, next_index)
                next_index += 1
            for conn in mp_connection.wait(list(busy)):
                handle, index = busy.pop(conn)
                try:
                    ok, body, trace = conn.recv()
                except (EOFError, OSError):
                    raise _died(handle, index) from None
                if not ok:
                    raise ParallelError(f"item {index}: {body}\n{trace}".rstrip())
                outcomes[index] = body
                idle.append(handle)
    finally:
        for handle in handles:
            if handle.conn not in busy:
                # Idle: ask it to exit so it is not terminated mid-recv.
                try:
                    handle.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                handle.process.join(timeout=5.0)
            handle.kill()
    return [outcomes[index] for index in range(len(items))]
