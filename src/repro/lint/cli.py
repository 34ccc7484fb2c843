"""Command-line front end for the linter.

Invoked as ``repro lint ...`` (through :mod:`repro.cli`) or as
``python -m repro.lint ...``.  CI runs it with no flags::

    python -m repro.lint src examples benchmarks

Exit codes: 0 clean, 1 findings, 2 invalid invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .engine import LintError, lint_paths
from .reporters import render_rule_catalog, render_text

__all__ = ["main"]


def _emit(text: str) -> None:
    """Print, exiting quietly if the consumer (e.g. ``| head``) is gone."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so interpreter shutdown does not raise
        # a second BrokenPipeError while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def main(argv: Optional[List[str]] = None) -> int:
    """Lint CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Determinism and simulation-hygiene linter for the "
        "repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _emit(render_rule_catalog())
        return 0

    rules = args.rules.split(",") if args.rules else None
    try:
        result = lint_paths(args.paths, rules=rules)
    except LintError as error:
        print(f"repro lint: error: {error}", file=sys.stderr)
        return 2
    _emit(render_text(result))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
