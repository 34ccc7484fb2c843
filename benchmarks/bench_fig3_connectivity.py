"""Figure 3: fraction of disconnected nodes vs availability.

Paper claims reproduced here: as availability decreases the trust
graphs partition badly, while the overlay stays highly connected down
to alpha = 0.25 (f = 0.5) and even alpha = 0.125 (f = 1.0, where the
denser trust graph helps), tracking the random-graph baseline.
"""

from repro.experiments import figure_table

from conftest import emit


class TestFigure3:
    def test_bench_connectivity_sweeps(self, benchmark, sweeps, scale, results_dir):
        def collect():
            return sweeps  # session fixture: computed once

        result = benchmark.pedantic(collect, rounds=1, iterations=1)
        for f, records in result.items():
            emit(results_dir, f"fig3_f{f:g}", figure_table("fig3", records))

        for f, records in result.items():
            by_alpha = {point["alpha"]: point for point in records}
            for alpha, point in by_alpha.items():
                # The overlay never does (meaningfully) worse than the
                # bare trust graph.
                assert (
                    point["overlay_disconnected"]
                    <= point["trust_disconnected"] + 0.05
                ), f"overlay worse than trust graph at f={f}, alpha={alpha}"
            # High connectivity for alpha >= 0.25 (the paper's claim).
            for point in records:
                if point["alpha"] >= 0.25:
                    assert point["overlay_disconnected"] < 0.25, (
                        f"overlay badly partitioned at f={f}, "
                        f"alpha={point['alpha']}"
                    )
                if point["alpha"] >= 0.5:
                    assert point["overlay_disconnected"] < 0.05

        # The denser f=1.0 trust graph yields better low-alpha overlay
        # connectivity than f=0.5 (Figure 3's second claim).
        lowest_alpha = min(p["alpha"] for p in result[1.0])
        dense = next(p for p in result[1.0] if p["alpha"] == lowest_alpha)
        sparse = next(p for p in result[0.5] if p["alpha"] == lowest_alpha)
        assert (
            dense["overlay_disconnected"] <= sparse["overlay_disconnected"] + 0.05
        )
