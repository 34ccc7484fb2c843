"""Shared fixtures for the benchmark harness.

Each ``bench_figN`` module regenerates one figure of the paper at the
scale selected by the environment (``REPRO_FULL=1`` for paper scale,
default quick — see DESIGN.md §5), prints the same rows/series the
paper plots, saves them under ``benchmarks/results/``, and asserts the
qualitative shape the paper reports.

Figures 3 and 4 come from the same availability sweeps, so the sweeps
are computed once per session and shared.  The figure sweeps fork one
worker per core (``WORKERS``, named in the session summary); every point
draws from its own seeded streams, so the tables do not depend on it.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments import by_f, figure3, scale_from_env

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SEED = 1
WORKERS = os.cpu_count() or 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"figure sweeps: {WORKERS} worker process(es), one per core"
    )


@pytest.fixture(scope="session")
def scale():
    """The experiment scale for this benchmark session."""
    return scale_from_env()


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def sweeps(scale):
    """Figure-3/4 records for f = 1.0 and f = 0.5, grouped by f."""
    return by_f(figure3(scale, seed=SEED, fs=(1.0, 0.5), workers=WORKERS))


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
