"""Figure 4: normalized average path length vs availability.

Paper claims reproduced here: the overlay's normalized path length is
significantly lower than the trust graph's and closely matches the
Erdős–Rényi baseline across availability values.
"""

from repro.experiments import figure_table

from conftest import emit


class TestFigure4:
    def test_bench_path_length_sweeps(self, benchmark, sweeps, scale, results_dir):
        def collect():
            return sweeps

        result = benchmark.pedantic(collect, rounds=1, iterations=1)
        for f, records in result.items():
            emit(results_dir, f"fig4_f{f:g}", figure_table("fig4", records))

        for f, records in result.items():
            for point in records:
                alpha = point["alpha"]
                if alpha < 0.25:
                    continue  # both baselines degenerate at extreme churn
                # Overlay paths significantly shorter than the trust graph.
                assert point["overlay_path_length"] < point["trust_path_length"], (
                    f"overlay paths not shorter at f={f}, alpha={alpha}"
                )
                # And close to the random baseline (within 2x).
                assert (
                    point["overlay_path_length"] < 2.0 * point["random_path_length"]
                ), f"overlay far from random baseline at f={f}, alpha={alpha}"
