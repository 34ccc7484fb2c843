"""Tests for the generic config grid sweep, serial and on worker pools."""

import dataclasses

import pytest

from repro import SystemConfig
from repro.errors import ExperimentError, ParallelError
from repro.experiments import QUICK, SMOKE, make_config
from repro.experiments.store import ResultStore
from repro.experiments.sweeps import SweepPoint, grid_sweep, sweep_table_rows
from repro.parallel import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture
def base():
    return SystemConfig(num_nodes=10, cache_size=10, shuffle_length=4, seed=3)


def _log_call(log, value):
    """Record one experiment call; appends survive forked workers."""
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")


def _logged_calls(log):
    if not log.exists():
        return []
    return sorted(int(line) for line in log.read_text().split())


@dataclasses.dataclass(frozen=True)
class _SamplingProbe:
    f: float

    def __call__(self, config):
        return {"f": self.f, "num_nodes": config.num_nodes}


def _event_engine(config):
    return {"engine": "event"}


def _batch_engine(config):
    return {"engine": "batch", "state_digest": "0" * 64}


_SMOKE_CONFIG = make_config(SMOKE, alpha=0.5, f=0.5, seed=3)

#: (first run, second run) against one store: each pair differs in
#: something other than the seed and the overrides.
_MEMO_CASES = {
    "scale": (
        (_SMOKE_CONFIG, _SamplingProbe(0.5)),
        (make_config(QUICK, alpha=0.5, f=0.5, seed=3), _SamplingProbe(0.5)),
    ),
    "f": (
        (_SMOKE_CONFIG, _SamplingProbe(0.5)),
        (_SMOKE_CONFIG, _SamplingProbe(1.0)),
    ),
    "engine": (
        (_SMOKE_CONFIG, _event_engine),
        (_SMOKE_CONFIG, _batch_engine),
    ),
}


class TestGridSweep:
    def test_cartesian_product_order(self, base):
        seen = []
        points = grid_sweep(
            base,
            {"cache_size": [5, 10], "shuffle_length": [2, 3]},
            lambda config: seen.append(
                (config.cache_size, config.shuffle_length)
            )
            or 0,
        )
        assert seen == [(5, 2), (5, 3), (10, 2), (10, 3)]
        assert len(points) == 4
        assert points[0].override("cache_size") == 5

    def test_base_config_untouched_fields(self, base):
        points = grid_sweep(
            base,
            {"cache_size": [7]},
            lambda config: config.num_nodes,
        )
        assert points[0].outcome == 10  # num_nodes inherited

    def test_unknown_field_rejected(self, base):
        with pytest.raises(ExperimentError):
            grid_sweep(base, {"warp_speed": [1]}, lambda config: 0)

    def test_empty_axis_rejected(self, base):
        with pytest.raises(ExperimentError):
            grid_sweep(base, {"cache_size": []}, lambda config: 0)

    def test_no_axes_rejected(self, base):
        with pytest.raises(ExperimentError, match="at least one axis"):
            grid_sweep(base, {}, lambda config: 0, workers=2)

    def test_unknown_override_lookup_rejected(self, base):
        points = grid_sweep(base, {"cache_size": [5]}, lambda config: 0)
        with pytest.raises(ExperimentError):
            points[0].override("availability")

    def test_store_memoizes_points(self, base, tmp_path):
        """Serial and pooled runs share one store: each reuses what the
        other saved, and a pooled point is saved by its worker."""
        store = ResultStore(tmp_path / "store")
        log = tmp_path / "calls"

        def experiment(config):
            _log_call(log, config.cache_size)
            return {"disc": 0.1}

        grid_sweep(base, {"cache_size": [5, 10]}, experiment, store=store)
        points = grid_sweep(
            base, {"cache_size": [5, 10, 20]}, experiment, store=store, workers=2
        )
        # Only the new point (20) recomputed on the second run ...
        assert _logged_calls(log) == [5, 10, 20]
        # ... and a third, serial run finds it stored.
        assert (
            grid_sweep(base, {"cache_size": [5, 10, 20]}, experiment, store=store)
            == points
        )
        assert _logged_calls(log) == [5, 10, 20]

    @pytest.mark.parametrize("case", sorted(_MEMO_CASES))
    def test_store_invalidated_by_config_and_experiment(self, case, tmp_path):
        """A stored point is reused only for the same base config and the
        same experiment, not merely the same seed and overrides."""
        store = ResultStore(tmp_path)
        axes = {"availability": [0.3]}
        (first_config, first), (second_config, second) = _MEMO_CASES[case]
        grid_sweep(first_config, axes, first, store=store)
        (point,) = grid_sweep(second_config, axes, second, store=store)
        assert point.outcome == second(second_config.replace(availability=0.3))

    def test_failed_sweep_keeps_finished_points(self, base, tmp_path):
        """A re-run after a failure computes only the missing points, at
        any worker count."""
        store = ResultStore(tmp_path / "store")
        log = tmp_path / "calls"
        poison = tmp_path / "poison"
        poison.touch()

        def experiment(config):
            _log_call(log, config.cache_size)
            if config.cache_size == 20 and poison.exists():
                raise RuntimeError("injected failure")
            return config.cache_size

        axes = {"cache_size": [5, 10, 20]}
        with pytest.raises(ParallelError, match="item 2: RuntimeError: injected"):
            grid_sweep(base, axes, experiment, store=store)
        poison.unlink()
        points = grid_sweep(base, axes, experiment, store=store, workers=2)
        assert [point.outcome for point in points] == [5, 10, 20]
        assert _logged_calls(log) == [5, 10, 20, 20]

    @needs_fork
    def test_worker_failure_raises_parallel_error(self, base):
        def fails(config):
            raise ValueError("nope")

        with pytest.raises(ParallelError, match="ValueError: nope"):
            grid_sweep(base, {"cache_size": [5, 10]}, fails, workers=2)

    def test_store_invalidated_by_seed(self, base, tmp_path):
        store = ResultStore(tmp_path)
        calls = []

        def experiment(config):
            calls.append(1)
            return 0

        grid_sweep(base, {"cache_size": [5]}, experiment, store=store)
        grid_sweep(
            base.replace(seed=99), {"cache_size": [5]}, experiment, store=store
        )
        assert len(calls) == 2


class TestSweepTableRows:
    def test_scalar_outcomes(self):
        points = [
            SweepPoint(overrides=(("cache_size", 5),), outcome=0.1),
            SweepPoint(overrides=(("cache_size", 10),), outcome=0.2),
        ]
        headers, rows = sweep_table_rows(points)
        assert headers == ["cache_size", "outcome"]
        assert rows == [(5, 0.1), (10, 0.2)]

    def test_dict_outcomes(self):
        points = [
            SweepPoint(
                overrides=(("availability", 0.5),),
                outcome={"disc": 0.1, "npl": 3.0},
            )
        ]
        headers, rows = sweep_table_rows(points)
        assert headers == ["availability", "disc", "npl"]
        assert rows == [(0.5, 0.1, 3.0)]

    def test_selected_fields(self):
        points = [
            SweepPoint(
                overrides=(("availability", 0.5),),
                outcome={"disc": 0.1, "npl": 3.0},
            )
        ]
        headers, rows = sweep_table_rows(points, outcome_fields=["npl"])
        assert headers == ["availability", "npl"]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            sweep_table_rows([])

    def test_end_to_end_with_real_overlay(self):
        """A tiny real sweep: availability x nothing, smoke scale."""
        from repro.experiments import SMOKE, make_config, make_trust_graph
        from repro.experiments import run_overlay_experiment

        trust = make_trust_graph(SMOKE, f=0.5, seed=4)
        base = make_config(SMOKE, alpha=0.5, f=0.5, seed=4)

        def experiment(config):
            result = run_overlay_experiment(
                trust, config, horizon=15.0, measure_window=5.0
            )
            return {"disconnected": result.disconnected}

        points = grid_sweep(base, {"availability": [0.4, 0.8]}, experiment)
        headers, rows = sweep_table_rows(points)
        assert headers == ["availability", "disconnected"]
        assert len(rows) == 2
        assert all(0.0 <= row[1] <= 1.0 for row in rows)
