"""Smoke-scale tests for the figure harness.

These verify the harness mechanics (record structure, table rendering,
qualitative ordering, the sweep memo) at SMOKE scale; the quantitative
reproduction runs in benchmarks/ at QUICK or PAPER scale.
"""

import dataclasses
import json
import math

import pytest

from repro.experiments import (
    SMOKE,
    FigurePoint,
    ResultStore,
    availability_sweep,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure_table,
    grid_sweep,
    make_config,
)
from repro.experiments.figures import mean_degrees

ALPHAS = (0.25, 0.6)
SEEDS = {"seed": [1, 2]}


@pytest.fixture(scope="module")
def sweep():
    return availability_sweep(SMOKE, f=0.5, seed=1, alphas=ALPHAS)


def _seed_sweep(store):
    """The alpha = 0.25 Figure-3 point over seeds 1 and 2."""
    base = make_config(SMOKE, ALPHAS[0], f=0.5, seed=1)
    return grid_sweep(base, SEEDS, FigurePoint("fig3", SMOKE), store=store)


@pytest.fixture(scope="module")
def seed_store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("figure-store"))


@pytest.fixture(scope="module")
def seed_points(seed_store):
    return _seed_sweep(seed_store)


@pytest.fixture(scope="module")
def fig5():
    return figure5(SMOKE, seed=1, fs=(0.5,), alpha=0.5)


@pytest.fixture(scope="module")
def fig6():
    return figure6(SMOKE, seed=1, fs=(0.5,), alpha=0.5)


@pytest.fixture(scope="module")
def fig7():
    return figure7(SMOKE, seed=1, ratios=(1.0, 9.0), alphas=(0.3, 0.6))


@pytest.fixture(scope="module")
def fig8():
    return figure8(SMOKE, seed=1, ratios=(3.0, 9.0))


@pytest.fixture(scope="module")
def fig9():
    return figure9(SMOKE, seed=1, ratios=(3.0, math.inf))


class TestAvailabilitySweep:
    def test_points_structured(self, sweep):
        assert [point.alpha for point in sweep.points] == [0.25, 0.6]
        for point in sweep.points:
            assert 0.0 <= point.overlay_disconnected <= 1.0
            assert point.overlay_path_length > 0.0

    def test_overlay_beats_trust_at_moderate_alpha(self, sweep):
        point = sweep.points[1]  # alpha = 0.6
        assert point.overlay_disconnected <= point.trust_disconnected

    def test_format_disconnected_table(self, seed_points):
        table = figure_table("fig3", [seed_points[0].outcome])
        assert "Figure 3" in table
        assert "trust_graph" in table and "random_graph" in table
        assert "0.25" in table

    def test_format_path_table(self, seed_points):
        table = figure_table("fig4", [seed_points[0].outcome])
        assert "Figure 4" in table


class TestFigurePoint:
    def test_seed_is_an_axis(self, sweep, seed_points, fig8):
        """Each seed's grid point is exactly that seed's figure point."""
        by_seed = {1: sweep.points[0]}
        by_seed[2] = availability_sweep(SMOKE, 0.5, seed=2, alphas=ALPHAS[:1]).points[0]
        assert [point.override("seed") for point in seed_points] == [1, 2]
        for point in seed_points:
            expected = dataclasses.asdict(by_seed[point.override("seed")])
            assert {name: point.outcome[name] for name in expected} == expected
        assert seed_points[0].outcome != seed_points[1].outcome

        # Figure 8: each seed's record carries that seed's convergence time.
        base = make_config(SMOKE, 0.25, f=0.5, seed=1)
        fig8_points = grid_sweep(base, SEEDS, FigurePoint("fig8", SMOKE))
        fig8_by_seed = {1: fig8[0], 2: figure8(SMOKE, seed=2, ratios=(3.0,))[0]}
        for point in fig8_points:
            assert point.outcome == fig8_by_seed[point.override("seed")]
        assert "convergence" in fig8_points[0].outcome
        assert fig8_points[0].outcome != fig8_points[1].outcome

    def test_store_rerun_recomputes_nothing(self, seed_store, seed_points):
        stamps = {
            path: path.stat().st_mtime_ns for path in seed_store.root.glob("*.json")
        }
        assert len(stamps) == 2
        again = _seed_sweep(seed_store)
        assert {
            path: path.stat().st_mtime_ns for path in seed_store.root.glob("*.json")
        } == stamps
        assert figure_table("fig3", [p.outcome for p in again]) == figure_table(
            "fig3", [p.outcome for p in seed_points]
        )

    @pytest.mark.parametrize("figure", ["fig3", "fig5", "fig6", "fig7", "fig8", "fig9"])
    def test_records_are_json(self, figure, request, seed_points):
        if figure == "fig3":
            records = [point.outcome for point in seed_points]
        else:
            records = request.getfixturevalue(figure)
        for record in records:
            assert json.loads(json.dumps(record)) == record

    def test_summary_record_is_json(self):
        scale = dataclasses.replace(
            SMOKE, stabilization_horizon=4.0, measure_window=4.0
        )
        record = FigurePoint("summary", scale)(make_config(scale, 0.5, seed=1))
        assert sorted(record) == [
            "disconnected",
            "full_edge_count",
            "online_fraction",
            "trust_disconnected",
        ]
        assert json.loads(json.dumps(record)) == record


#: A scale small enough to run every figure on the batch engine.
TINY = dataclasses.replace(
    SMOKE,
    stabilization_horizon=8.0,
    measure_window=4.0,
    fig8_horizon=10.0,
    fig9_horizon=10.0,
)


def _leaves(value):
    """Every scalar in a record value, lists flattened."""
    return value if isinstance(value, list) else [value]


class TestShardedRecords:
    """Every figure record runs on the sharded batch engine, sampled by
    the same collector as the event run."""

    @pytest.mark.parametrize("figure", ["fig3", "fig5", "fig6", "fig7", "fig8", "fig9"])
    def test_record_matches_the_event_record(self, figure):
        from repro.parallel import ShardOptions

        config = make_config(TINY, 0.5, f=0.5, seed=1)
        event = FigurePoint(figure, TINY)(config)
        batch = FigurePoint(figure, TINY, ShardOptions(2, 1))(config)
        assert sorted(batch) == sorted(event)
        assert json.loads(json.dumps(batch)) == batch
        for key, value in batch.items():
            assert type(value) is type(event[key]) or event[key] is None, key
            for leaf in _leaves(value):
                if isinstance(leaf, (int, float)):
                    assert math.isfinite(leaf), key
            if isinstance(value, list) and not key.endswith("histogram"):
                assert len(value) == len(event[key]), key
        if "times" in batch:
            assert batch["times"] == [float(t) for t in range(1, 11)]
        if figure == "fig6":
            assert len(batch["trust_degree"]) == TINY.num_nodes
            assert batch["system_mean"] > 0


class TestFigure5:
    def test_histograms(self, fig5):
        (record,) = fig5
        assert sum(record["overlay_histogram"]) > 0
        trust_mean, overlay_mean, random_mean = mean_degrees(record)
        # Pseudonym links shift the distribution right.
        assert overlay_mean > trust_mean
        table = figure_table("fig5", fig5)
        assert "Figure 5" in table


class TestFigure6:
    def test_overheads(self, fig6):
        (record,) = fig6
        assert len(record["messages_per_period"]) == SMOKE.num_nodes
        # Ranked by descending trust degree.
        degrees = record["trust_degree"]
        assert degrees == sorted(degrees, reverse=True)
        # System-wide mean messages/period should be near 2.
        assert 1.0 < record["system_mean"] < 3.0
        assert "Figure 6" in figure_table("fig6", fig6)


class TestFigure7:
    def test_lifetime_ordering(self, fig7):
        assert {record["ratio"] for record in fig7} == {1.0, 9.0}
        curves = {
            ratio: [r["disconnected"] for r in fig7 if r["ratio"] == ratio]
            for ratio in (1.0, 9.0)
        }
        # Longer lifetimes never hurt; allow small noise at smoke scale.
        for short, long in zip(curves[1.0], curves[9.0]):
            assert long <= short + 0.15
        table = figure_table("fig7", fig7)
        assert "Figure 7" in table and "r=9" in table


class TestFigure8:
    def test_series_aligned(self, fig8):
        record = fig8[0]
        assert record["ratio"] == 3.0
        assert len(record["disconnected"]) == len(record["trust_disconnected"])
        assert len(record["times"]) == len(record["disconnected"])
        assert "Figure 8" in figure_table("fig8", fig8)

    def test_convergence_recorded(self, fig8):
        assert fig8[1]["ratio"] == 9.0
        assert "convergence" in fig8[1]


class TestFigure9:
    def test_replacement_series(self, fig9):
        stable = {record["ratio"]: record["stable_rate"] for record in fig9}
        assert set(stable) == {3.0, math.inf}
        # Non-expiring pseudonyms stabilize at a (near-)zero replacement
        # rate; expiring ones keep replacing links.
        assert stable[math.inf] < stable[3.0]
        table = figure_table("fig9", fig9)
        assert "Figure 9" in table and "Infinite" in table


class TestWorkersEquivalence:
    """The workers= contract: parallel figure points are identical."""

    def test_availability_sweep_parallel_identical(self, sweep):
        parallel = availability_sweep(SMOKE, f=0.5, seed=1, alphas=ALPHAS, workers=2)
        assert parallel == sweep

    def test_figure9_parallel_identical(self, fig9):
        parallel = figure9(SMOKE, seed=1, ratios=(3.0, math.inf), workers=2)
        assert parallel == fig9
