"""Ablation: message loss tolerance.

The evaluation assumes ideal reliable links (§IV); real anonymity
networks lose messages.  Gossip is naturally redundant — every period
brings a fresh exchange — so moderate loss should barely dent
robustness.  This bench sweeps independent per-message loss rates.
"""

from repro.experiments import (
    format_table,
    make_config,
    make_trust_graph,
    run_overlay_experiment,
)
from repro.privlink import make_ideal_link_layer

from conftest import SEED, emit

_ALPHA = 0.35
_LOSS_RATES = (0.0, 0.1, 0.3)


class TestLossAblation:
    def test_bench_loss_rates(self, benchmark, scale, results_dir):
        trust_graph = make_trust_graph(scale, f=0.5, seed=SEED)
        config = make_config(scale, alpha=_ALPHA, f=0.5, seed=SEED)

        def run():
            outcomes = {}
            for loss_rate in _LOSS_RATES:
                result = run_overlay_experiment(
                    trust_graph,
                    config,
                    horizon=scale.total_horizon,
                    measure_window=scale.measure_window,
                    link_layer_factory=lambda sim, rng, rate=loss_rate: (
                        make_ideal_link_layer(
                            sim,
                            rng,
                            max_latency=config.message_latency,
                            loss_rate=rate,
                        )
                    ),
                )
                link_layer = result.overlay.link_layer
                outcomes[loss_rate] = (
                    result.disconnected,
                    result.trust_disconnected,
                    link_layer.anonymity.loss.dropped
                    + link_layer.pseudonym.loss.dropped,
                )
            return outcomes

        outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (rate, overlay_disc, trust_disc, dropped)
            for rate, (overlay_disc, trust_disc, dropped) in sorted(
                outcomes.items()
            )
        ]
        emit(
            results_dir,
            "ablation_loss",
            format_table(
                ["loss_rate", "overlay_disconnected", "trust_disconnected", "messages_lost"],
                rows,
                title=f"Ablation: per-message loss at alpha={_ALPHA}",
            ),
        )

        lossless = outcomes[0.0][0]
        # The loss machinery is exercised...
        assert outcomes[0.3][2] > 0
        assert outcomes[0.0][2] == 0
        # ...and even 30% loss costs little robustness (graceful decay).
        assert outcomes[0.1][0] <= lossless + 0.05
        assert outcomes[0.3][0] <= lossless + 0.10
        # Loss never helps the bare trust baseline either way; the
        # overlay still beats it.
        assert outcomes[0.3][0] < outcomes[0.3][1]
