"""Figure 9: pseudonym-link replacements per node per shuffle period.

The paper's claims about it are ``fig9.*`` in ``repro.experiments.claims``;
``fig9_claims.txt`` records their verdicts next to the table.
"""

import math

from repro.experiments import assert_claims, figure9, figure_table

from conftest import SEED, WORKERS, emit

_RATIOS = (3.0, 9.0, math.inf)


class TestFigure9:
    def test_bench_replacement_rates(self, benchmark, scale, results_dir):
        def run():
            return figure9(
                scale, seed=SEED, alpha=0.25, ratios=_RATIOS, workers=WORKERS
            )

        records = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(results_dir, "fig9_replacement", figure_table("fig9", records))
        emit(results_dir, "fig9_claims", assert_claims("fig9", records, scale))
