"""Tests for grid sweeps on the worker pool: equivalence and re-runs.

The serial/parallel equivalence test here is an acceptance criterion:
``grid_sweep(..., workers=4)`` must return points identical to
``grid_sweep(...)`` for the same base config, using the real overlay
experiment.
"""

import dataclasses

import pytest

from repro.experiments import (
    ResultStore,
    SMOKE,
    FigurePoint,
    grid_sweep,
    make_config,
    make_trust_graph,
)

# A real (but short-horizon) overlay experiment: full protocol stack,
# an 8-period horizon with a 4-period window.
EXPERIMENT = FigurePoint(
    "summary",
    dataclasses.replace(SMOKE, stabilization_horizon=4.0, measure_window=4.0),
)
AXES = {"availability": [0.3, 0.6], "lifetime_ratio": [3.0, 9.0]}


def _base(seed=3):
    return make_config(SMOKE, alpha=0.5, f=0.5, seed=seed)


def _count_and_run(config):
    return {"availability": config.availability, "seed": config.seed}


def _store_stamps(store):
    return {path: path.stat().st_mtime_ns for path in store.root.glob("*.json")}


@pytest.fixture(scope="module", autouse=True)
def _warm_trust_graph():
    # Memoize the trust graph once so forked workers inherit it and the
    # module's sweeps share one social-graph build.
    make_trust_graph(SMOKE, f=0.5, seed=3)


class TestEquivalence:
    def test_parallel_identical_to_serial(self):
        """Acceptance: workers=4 returns exactly what a serial sweep does."""
        serial = grid_sweep(_base(), AXES, EXPERIMENT)
        assert grid_sweep(_base(), AXES, EXPERIMENT, workers=4) == serial

    def test_workers_param_on_grid_sweep_delegates(self):
        serial = grid_sweep(_base(), AXES, EXPERIMENT)
        via_param = grid_sweep(_base(), AXES, EXPERIMENT, workers=2)
        assert via_param == serial

    def test_shared_store_cache(self, tmp_path):
        """Serial and parallel runs memoize under the same store keys."""
        store = ResultStore(tmp_path)
        serial = grid_sweep(_base(), AXES, EXPERIMENT, store=store)
        stamps = _store_stamps(store)
        assert len(stamps) == len(serial)
        pooled = grid_sweep(_base(), AXES, EXPERIMENT, store=store, workers=2)
        assert pooled == serial
        assert _store_stamps(store) == stamps


class TestRunParallelSweep:
    def test_grid_order_and_seeds(self):
        points = grid_sweep(_base(), AXES, _count_and_run, workers=2)
        assert [p.overrides for p in points] == [
            (("availability", 0.3), ("lifetime_ratio", 3.0)),
            (("availability", 0.3), ("lifetime_ratio", 9.0)),
            (("availability", 0.6), ("lifetime_ratio", 3.0)),
            (("availability", 0.6), ("lifetime_ratio", 9.0)),
        ]
        # Every point runs on base_config.replace(**overrides), so each
        # sees the base seed and its own overridden availability.
        assert [p.outcome for p in points] == [
            {"availability": 0.3, "seed": 3},
            {"availability": 0.3, "seed": 3},
            {"availability": 0.6, "seed": 3},
            {"availability": 0.6, "seed": 3},
        ]

    def test_resume_noop_when_complete(self, tmp_path):
        """Re-running a finished sweep is the resume: it computes nothing."""
        store = ResultStore(tmp_path)
        first = grid_sweep(_base(), AXES, _count_and_run, store=store, workers=2)
        stamps = _store_stamps(store)
        assert len(stamps) == 4
        again = grid_sweep(_base(), AXES, _count_and_run, store=store, workers=2)
        assert again == first
        assert _store_stamps(store) == stamps
