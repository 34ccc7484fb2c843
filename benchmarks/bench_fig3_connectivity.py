"""Figure 3: fraction of disconnected nodes vs availability.

The paper's claims about it are ``fig3.*`` in ``repro.experiments.claims``;
``fig3_claims.txt`` records their verdicts next to the table.
"""

from repro.experiments import assert_claims, figure_table

from conftest import emit


class TestFigure3:
    def test_bench_connectivity_sweeps(self, benchmark, sweeps, scale, results_dir):
        def collect():
            return sweeps  # session fixture: computed once

        result = benchmark.pedantic(collect, rounds=1, iterations=1)
        for f, records in result.items():
            emit(results_dir, f"fig3_f{f:g}", figure_table("fig3", records))
        records = [record for part in result.values() for record in part]
        emit(results_dir, "fig3_claims", assert_claims("fig3", records, scale))
