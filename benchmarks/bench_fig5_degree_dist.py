"""Figure 5: degree distribution over online nodes at alpha = 0.5.

The paper's claims about it are ``fig5.*`` in ``repro.experiments.claims``;
``fig5_claims.txt`` records their verdicts next to the table.
"""

from repro.experiments import assert_claims, figure5, figure_table

from conftest import SEED, WORKERS, emit


class TestFigure5:
    def test_bench_degree_distributions(self, benchmark, scale, results_dir):
        def run():
            return figure5(
                scale, seed=SEED, fs=(1.0, 0.5), alpha=0.5, workers=WORKERS
            )

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        for record in results:
            emit(results_dir, f"fig5_f{record['f']:g}", figure_table("fig5", [record]))
        emit(results_dir, "fig5_claims", assert_claims("fig5", results, scale))
