"""Ablation: churn-model sensitivity (homogeneous vs heterogeneous vs
heavy-tailed).

The paper evaluates homogeneous exponential churn only, while its churn
model's source (Yao et al.) emphasizes heterogeneity and heavy-tailed
session times.  This bench drives the overlay with three churn models
of equal average availability and checks that the robustness conclusion
is not an artifact of the homogeneous-exponential choice:

* homogeneous exponential (the paper's setting);
* heterogeneous: half the population at low availability, half high;
* Pareto (heavy-tailed) on/off durations.
"""

from repro.churn import NodeChurnSpec, Pareto, homogeneous_specs
from repro.experiments import (
    format_table,
    make_config,
    make_trust_graph,
    run_overlay_experiment,
)

from conftest import SEED, emit

_ALPHA = 0.35


def _heterogeneous_specs(num_nodes, mean_offline):
    """Half the nodes at alpha=0.1, half at alpha=0.6 (mean 0.35)."""
    low = homogeneous_specs(num_nodes // 2, 0.1, mean_offline)
    high = homogeneous_specs(num_nodes - num_nodes // 2, 0.6, mean_offline)
    return low + high


def _pareto_specs(num_nodes, alpha, mean_offline):
    mean_online = alpha * mean_offline / (1.0 - alpha)
    return [
        NodeChurnSpec(Pareto(mean_online, shape=2.5), Pareto(mean_offline, shape=2.5))
        for _ in range(num_nodes)
    ]


class TestChurnAblation:
    def test_bench_churn_models(self, benchmark, scale, results_dir):
        trust_graph = make_trust_graph(scale, f=0.5, seed=SEED)
        config = make_config(scale, alpha=_ALPHA, f=0.5, seed=SEED)

        def run():
            outcomes = {}
            outcomes["exponential"] = run_overlay_experiment(
                trust_graph,
                config,
                horizon=scale.total_horizon,
                measure_window=scale.measure_window,
            )
            # Heterogeneous and Pareto models reuse the same protocol
            # parameters, only the churn specs change.
            for name, specs in (
                (
                    "heterogeneous",
                    _heterogeneous_specs(
                        scale.num_nodes, scale.mean_offline_time
                    ),
                ),
                (
                    "pareto",
                    _pareto_specs(
                        scale.num_nodes, _ALPHA, scale.mean_offline_time
                    ),
                ),
            ):
                result = run_overlay_experiment(
                    trust_graph,
                    config,
                    horizon=scale.total_horizon,
                    measure_window=scale.measure_window,
                    churn_specs=specs,
                )
                outcomes[name] = (result.disconnected, result.trust_disconnected)
            return outcomes

        outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
        exponential = outcomes["exponential"]
        rows = [
            (
                "exponential",
                exponential.disconnected,
                exponential.trust_disconnected,
            ),
            ("heterogeneous", *outcomes["heterogeneous"]),
            ("pareto", *outcomes["pareto"]),
        ]
        emit(
            results_dir,
            "ablation_churn",
            format_table(
                ["churn_model", "overlay_disconnected", "trust_disconnected"],
                rows,
                title=f"Ablation: churn models at mean alpha={_ALPHA}",
            ),
        )

        # The overlay clearly beats the trust baseline under every model.
        for name, overlay_disc, trust_disc in rows:
            assert overlay_disc < 0.6 * trust_disc + 0.02, (
                f"overlay not robust under {name} churn "
                f"({overlay_disc:.3f} vs trust {trust_disc:.3f})"
            )
