"""Figure 6: messages sent per shuffle period, ranked by trust degree.

The paper's claims about it are ``fig6.*`` in ``repro.experiments.claims``;
``fig6_claims.txt`` records their verdicts next to the table.
"""

from repro.experiments import assert_claims, figure6, figure_table

from conftest import SEED, WORKERS, emit


class TestFigure6:
    def test_bench_message_overhead(self, benchmark, scale, results_dir):
        def run():
            return figure6(
                scale, seed=SEED, fs=(1.0, 0.5), alpha=0.5, workers=WORKERS
            )

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        for record in results:
            emit(results_dir, f"fig6_f{record['f']:g}", figure_table("fig6", [record]))
        emit(results_dir, "fig6_claims", assert_claims("fig6", results, scale))
