"""Figure 9: pseudonym-link replacements per node per shuffle period.

Paper claims reproduced here: with non-expiring pseudonyms (r = inf)
nodes quickly find the best links and the replacement rate falls to
(near) zero; finite lifetimes sustain a positive replacement rate that
is higher for r = 3 than for r = 9; and the r = 9 run oscillates early
because the initial synchronized pseudonym cohort expires together.
"""

import math

import numpy as np

from repro.experiments import figure9, figure_table

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

        by_ratio = {r["ratio"]: r for r in records}
        stable = {ratio: r["stable_rate"] for ratio, r in by_ratio.items()}
        # Ordering: no expiry < slow expiry < fast expiry.
        assert stable[math.inf] < stable[9.0] < stable[3.0]
        # Non-expiring pseudonyms almost stop reconfiguring.
        assert stable[math.inf] < 0.5
        # Finite lifetimes sustain a clearly positive replacement rate.
        assert stable[3.0] > 1.0

        # Early oscillation for r = 9: the peak replacement rate in the
        # first pseudonym generation far exceeds the stable rate.
        series = by_ratio[9.0]
        lifetime = 9.0 * scale.mean_offline_time
        early_values = [
            value
            for time, value in zip(series["times"], series["replacements"])
            if lifetime * 0.5 <= time <= lifetime * 2.5
        ]
        assert max(early_values) > 2.0 * stable[9.0], (
            "no expiry-cohort oscillation visible for r=9"
        )
