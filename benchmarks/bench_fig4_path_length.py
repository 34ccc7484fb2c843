"""Figure 4: normalized average path length vs availability.

The paper's claims about it are ``fig4.*`` in ``repro.experiments.claims``;
``fig4_claims.txt`` records their verdicts next to the table.
"""

from repro.experiments import assert_claims, figure_table

from conftest import emit


class TestFigure4:
    def test_bench_path_length_sweeps(self, benchmark, sweeps, scale, results_dir):
        def collect():
            return sweeps

        result = benchmark.pedantic(collect, rounds=1, iterations=1)
        for f, records in result.items():
            emit(results_dir, f"fig4_f{f:g}", figure_table("fig4", records))
        records = [record for part in result.values() for record in part]
        emit(results_dir, "fig4_claims", assert_claims("fig4", records, scale))
