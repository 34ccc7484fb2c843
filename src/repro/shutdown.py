"""Graceful SIGINT/SIGTERM handling for long-running CLIs.

Long commands (``repro node``, ``repro mesh``, ``repro sweep``) must
not lose partial results when the operator or a supervisor stops them.
The contract, shared by every entry point:

* SIGINT already raises :class:`KeyboardInterrupt`; we convert SIGTERM
  to the same exception so both paths drain through one ``except``.
* The command flushes whatever it has (stored sweep points, node logs),
  prints a one-line notice, and exits with :data:`EXIT_INTERRUPTED` —
  130, the shell convention for "terminated by signal" (128 + SIGINT).

Use :func:`graceful_shutdown` around the command body::

    with graceful_shutdown():
        try:
            run()
        except KeyboardInterrupt:
            flush_partial()
            return EXIT_INTERRUPTED

Asyncio commands use :func:`install_async_shutdown` instead, which
registers loop-level handlers setting an :class:`asyncio.Event`.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from typing import Iterator

__all__ = ["EXIT_INTERRUPTED", "graceful_shutdown", "install_async_shutdown"]

#: Shell convention for "killed by SIGINT" (128 + 2).
EXIT_INTERRUPTED = 130


def _raise_keyboard_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


@contextlib.contextmanager
def graceful_shutdown() -> Iterator[None]:
    """Route SIGTERM into :class:`KeyboardInterrupt` for this block.

    The previous handler is restored on exit.  In environments where
    signal handlers cannot be installed (non-main thread, restricted
    interpreter) this degrades to a no-op — SIGINT still works.
    """
    try:
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except (ValueError, OSError):  # non-main thread / unsupported platform
        previous = None
        installed = False
    else:
        installed = True
    try:
        yield
    finally:
        if installed:
            signal.signal(signal.SIGTERM, previous)


def install_async_shutdown(loop: asyncio.AbstractEventLoop) -> asyncio.Event:
    """Register SIGINT/SIGTERM on an asyncio loop; returns the stop event.

    The returned event is set when either signal arrives; the command's
    main coroutine waits on it and then drains.  Platforms without
    ``add_signal_handler`` (Windows, nested loops) fall back to the
    default behaviour — SIGINT still cancels ``asyncio.run`` with
    :class:`KeyboardInterrupt`.
    """
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, ValueError, OSError):
            continue
    return stop
