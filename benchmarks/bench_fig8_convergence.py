"""Figure 8: connectivity over time at alpha = 0.25.

Paper claims reproduced here: starting from a cold overlay, the
disconnected fraction drops sharply within a few shuffling periods and
stabilizes near full connectivity, while the trust-graph baseline stays
heavily partitioned for the whole run.
"""

from repro.experiments import figure8, figure_table
from repro.metrics.series import TimeSeries

from conftest import SEED, WORKERS, emit


def _series(times, values):
    series = TimeSeries()
    for time, value in zip(times, values):
        series.append(time, value)
    return series


class TestFigure8:
    def test_bench_convergence(self, benchmark, scale, results_dir):
        def run():
            return figure8(
                scale, seed=SEED, alpha=0.25, ratios=(3.0, 9.0), workers=WORKERS
            )

        records = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(results_dir, "fig8_convergence", figure_table("fig8", records))

        # The overlay converges: by the end, both r-variants are far
        # below the trust baseline's stable disconnection level.
        trust_tail = _series(
            records[0]["times"], records[0]["trust_disconnected"]
        ).tail_mean(0.3)
        overlay_series = {
            r["ratio"]: _series(r["times"], r["disconnected"]) for r in records
        }
        for ratio, series in overlay_series.items():
            overlay_tail = series.tail_mean(0.3)
            assert overlay_tail < 0.5 * trust_tail, (
                f"overlay r={ratio} did not separate from the trust "
                f"baseline ({overlay_tail:.3f} vs {trust_tail:.3f})"
            )
        # r=9 stabilizes at (near-)full connectivity.
        assert overlay_series[9.0].tail_mean(0.3) < 0.12

        # Convergence happens early: within 40% of the horizon the r=9
        # overlay already dipped below 0.1 disconnected.
        early = overlay_series[9.0].time_to_reach(0.1, below=True)
        assert early is not None and early < 0.4 * scale.fig8_horizon

        # The trust baseline never converges.
        assert trust_tail > 0.15
