"""Figure 8: connectivity over time at alpha = 0.25.

The paper's claims about it are ``fig8.*`` in ``repro.experiments.claims``;
``fig8_claims.txt`` records their verdicts next to the table.
"""

from repro.experiments import assert_claims, figure8, figure_table

from conftest import SEED, WORKERS, emit


class TestFigure8:
    def test_bench_convergence(self, benchmark, scale, results_dir):
        def run():
            return figure8(
                scale, seed=SEED, alpha=0.25, ratios=(3.0, 9.0), workers=WORKERS
            )

        records = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(results_dir, "fig8_convergence", figure_table("fig8", records))
        emit(results_dir, "fig8_claims", assert_claims("fig8", records, scale))
