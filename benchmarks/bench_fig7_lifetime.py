"""Figure 7: connectivity for different pseudonym lifetimes.

Paper claims reproduced here: robustness improves monotonically in the
lifetime ratio r; for r = 9 and r = infinite the overlay closely
resembles the random graph, r = 3 degrades only at very low
availability, and r = 1 behaves much more like the bare trust graph
because most pseudonym links of returning nodes have expired.
"""

import math

from repro.experiments import figure7, figure_table

from conftest import SEED, WORKERS, emit

_RATIOS = (1.0, 3.0, 9.0, math.inf)


class TestFigure7:
    def test_bench_lifetime_sweep(self, benchmark, scale, results_dir):
        alphas = tuple(alpha for alpha in scale.alphas if alpha <= 0.75)

        def run():
            return figure7(
                scale, seed=SEED, ratios=_RATIOS, alphas=alphas, workers=WORKERS
            )

        records = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(results_dir, "fig7_lifetimes", figure_table("fig7", records))

        curves = {
            ratio: [r["disconnected"] for r in records if r["ratio"] == ratio]
            for ratio in _RATIOS
        }
        for index, alpha in enumerate(alphas):
            if alpha < 0.25:
                continue  # extreme churn: every variant struggles
            # Monotone improvement in r (with noise tolerance).
            assert curves[3.0][index] <= curves[1.0][index] + 0.08
            assert curves[9.0][index] <= curves[3.0][index] + 0.05
            assert curves[math.inf][index] <= curves[9.0][index] + 0.05
            # r >= 9 keeps the overlay nearly fully connected.
            assert curves[9.0][index] < 0.12
            assert curves[math.inf][index] < 0.12

        # r = 1 is dominated by the trust graph's weakness at low alpha:
        # it must be clearly worse than r = 9 somewhere below 0.5.
        gaps = [
            curves[1.0][index] - curves[9.0][index]
            for index, alpha in enumerate(alphas)
            if alpha <= 0.5
        ]
        assert max(gaps) > 0.05, "r=1 never degraded relative to r=9"
