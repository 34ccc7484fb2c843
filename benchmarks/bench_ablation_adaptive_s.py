"""Ablation: degree-adaptive sampler size S vs uniform S.

The paper sizes each node's sampler as S = target - trusted_degree so
that "all nodes will have a similar number of overlay links".  With a
uniform S (min_pseudonym_links = target_degree), hubs stack pseudonym
links on top of their many trust links, re-skewing the degree
distribution.
"""

from repro.experiments import (
    format_table,
    make_config,
    make_trust_graph,
    run_overlay_experiment,
)

from conftest import SEED, emit


def _degree_spread(result):
    degrees = result.snapshot.degrees()
    if degrees.size == 0 or degrees.mean() == 0:
        return 0.0
    return float(degrees.std() / degrees.mean())


class TestAdaptiveSAblation:
    def test_bench_adaptive_vs_uniform(self, benchmark, scale, results_dir):
        trust_graph = make_trust_graph(scale, f=0.5, seed=SEED)

        def run():
            adaptive_config = make_config(scale, alpha=0.5, f=0.5, seed=SEED)
            uniform_config = adaptive_config.replace(
                min_pseudonym_links=scale.target_degree
            )
            return {
                "adaptive": run_overlay_experiment(
                    trust_graph,
                    adaptive_config,
                    horizon=scale.total_horizon,
                    measure_window=scale.measure_window,
                ),
                "uniform": run_overlay_experiment(
                    trust_graph,
                    uniform_config,
                    horizon=scale.total_horizon,
                    measure_window=scale.measure_window,
                ),
            }

        outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (name, outcome.disconnected, _degree_spread(outcome), outcome.full_edge_count)
            for name, outcome in outcomes.items()
        ]
        emit(
            results_dir,
            "ablation_adaptive_s",
            format_table(
                ["s_allocation", "disconnected", "degree_spread", "edges"],
                rows,
                title="Ablation: adaptive vs uniform sampler size S (alpha=0.5)",
            ),
        )

        # Uniform S gives hubs extra links: more edges overall and a
        # degree distribution at least as skewed as the adaptive one.
        assert (
            outcomes["uniform"].full_edge_count
            > outcomes["adaptive"].full_edge_count
        )
        assert outcomes["adaptive"].disconnected < 0.05
