"""Unit tests for the figure tables, rendered from synthetic records
(no simulations)."""

import math

import pytest

from repro.experiments.figures import figure_table, mean_degrees


def _point(alpha, f=0.5, trust=0.5, overlay=0.1, random=0.05):
    return {
        "scale": "test",
        "f": f,
        "alpha": alpha,
        "ratio": 3.0,
        "trust_disconnected": trust,
        "overlay_disconnected": overlay,
        "random_disconnected": random,
        "trust_path_length": 10.0,
        "overlay_path_length": 4.0,
        "random_path_length": 3.5,
    }


def _histogram(counts):
    """A dense degree histogram from a {degree: count} map."""
    size = max(counts, default=-1) + 1
    return [counts.get(degree, 0) for degree in range(size)]


def _degrees(trust, overlay, random):
    return {
        "f": 0.5,
        "alpha": 0.5,
        "trust_histogram": _histogram(trust),
        "overlay_histogram": _histogram(overlay),
        "random_histogram": _histogram(random),
    }


def _series(values, **fields):
    return {
        "alpha": 0.25,
        "times": [float(index) for index in range(len(values))],
        **fields,
    }


class TestAvailabilitySweepFormatting:
    def test_disconnected_table(self):
        table = figure_table("fig3", [_point(0.25), _point(0.5)])
        assert "Figure 3 (f=0.5, test scale)" in table
        assert "0.2500" in table and "0.5000" in table

    def test_path_table(self):
        table = figure_table("fig4", [_point(0.5, f=1.0)])
        assert "Figure 4 (f=1, test scale)" in table
        assert "10.0000" in table


class TestDegreeDistributionsFormatting:
    def test_bucketing(self):
        record = _degrees({3: 10, 7: 5}, {25: 8, 31: 2}, {24: 9})
        table = figure_table("fig5", [record])
        assert "0-9" in table
        assert "20-29" in table
        assert "30-39" in table
        # Buckets no graph reaches get no row.
        assert "10-19" not in table

    def test_mean_degrees(self):
        record = _degrees({2: 2}, {10: 1, 20: 1}, {})  # means 2, 15, none
        trust_mean, overlay_mean, random_mean = mean_degrees(record)
        assert trust_mean == pytest.approx(2.0)
        assert overlay_mean == pytest.approx(15.0)
        assert random_mean == 0.0


class TestMessageOverheadFormatting:
    def test_row_sampling(self):
        record = {
            "f": 0.5,
            "alpha": 0.5,
            "system_mean": 2.0,
            "trust_degree": [100 - index for index in range(100)],
            "max_out_degree": [30] * 100,
            "messages_per_period": [2.0] * 100,
        }
        table = figure_table("fig6", [record])
        assert "Figure 6" in table
        assert "system mean 2.00" in table
        # Sampled down to 20 rows: every fifth rank, under three header lines.
        lines = table.splitlines()
        assert len(lines) == 3 + 20
        assert lines[3].split()[0] == "1" and lines[4].split()[0] == "6"


class TestLifetimeSweepFormatting:
    def test_infinite_ratio_label(self):
        curves = {1.0: [0.3, 0.1], math.inf: [0.05, 0.0]}
        records = [
            {
                "scale": "test",
                "f": 0.5,
                "alpha": alpha,
                "ratio": ratio,
                "disconnected": curve[index],
                "trust_graph": [0.5, 0.2][index],
                "random_graph": [0.05, 0.01][index],
            }
            for index, alpha in enumerate([0.25, 0.5])
            for ratio, curve in curves.items()
        ]
        table = figure_table("fig7", records)
        assert "r=Infinite" in table
        assert "r=1" in table
        header = table.splitlines()[1].split()
        assert header == ["alpha", "trust_graph", "r=1", "r=Infinite", "random_graph"]


class TestConvergenceFormatting:
    def test_table_includes_convergence_times(self):
        trust = [0.5] * 10
        overlay = [max(0.0, 0.5 - 0.1 * index) for index in range(10)]
        record = _series(
            overlay,
            ratio=3.0,
            disconnected=overlay,
            trust_disconnected=trust,
            convergence=5.0,
        )
        table = figure_table("fig8", [record])
        assert "Figure 8" in table
        assert "r=3 -> 5 sp" in table

    def test_never_converged_label(self):
        record = _series(
            [0.9],
            ratio=3.0,
            disconnected=[0.9],
            trust_disconnected=[0.9],
            convergence=None,
        )
        assert "never" in figure_table("fig8", [record])


class TestReplacementFormatting:
    def test_stable_rates_in_title(self):
        records = [
            _series(
                [rate] * 8,
                ratio=ratio,
                replacements=[rate] * 8,
                stable_rate=rate,
            )
            for ratio, rate in ((3.0, 1.0), (math.inf, 0.0))
        ]
        table = figure_table("fig9", records)
        assert "Figure 9" in table
        assert "r=Infinite: 0.00/sp" in table
