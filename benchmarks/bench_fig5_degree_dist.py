"""Figure 5: degree distribution over online nodes at alpha = 0.5.

Paper claims reproduced here: pseudonym links shift the trust graph's
degree distribution to the right, close to the random graph's, but less
concentrated around the mean because skewed trust degrees remain.
"""

import numpy as np
import pytest

from repro.experiments import figure5, figure_table

from conftest import SEED, WORKERS, emit


def _stats(histogram):
    degrees = np.repeat(np.arange(len(histogram), dtype=float), histogram)
    return degrees.mean(), degrees.std()


class TestFigure5:
    def test_bench_degree_distributions(self, benchmark, scale, results_dir):
        def run():
            return figure5(
                scale, seed=SEED, fs=(1.0, 0.5), alpha=0.5, workers=WORKERS
            )

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        for record in results:
            emit(results_dir, f"fig5_f{record['f']:g}", figure_table("fig5", [record]))

        for record in results:
            f = record["f"]
            trust_mean, trust_std = _stats(record["trust_histogram"])
            overlay_mean, overlay_std = _stats(record["overlay_histogram"])
            random_mean, random_std = _stats(record["random_histogram"])

            # Distribution shifted right of the trust graph...
            assert overlay_mean > 2.0 * trust_mean, f"no right shift at f={f}"
            # ...matching the equal-size ER reference in the mean...
            assert overlay_mean == pytest.approx(random_mean, rel=0.15)
            # ...but less concentrated than ER because trust links skew it.
            assert overlay_std > random_std, (
                f"overlay unexpectedly tighter than ER at f={f}"
            )
