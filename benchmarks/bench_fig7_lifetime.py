"""Figure 7: connectivity for different pseudonym lifetimes.

The paper's claims about it are ``fig7.*`` in ``repro.experiments.claims``;
``fig7_claims.txt`` records their verdicts next to the table.
"""

import math

from repro.experiments import assert_claims, figure7, figure_table

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
        emit(results_dir, "fig7_claims", assert_claims("fig7", records, scale))
