"""Extension experiment: celebrity-attack resilience.

The paper's related work (MCONs) motivates degree caps by the
"celebrity attack": compromising or removing a hub of the social graph
devastates a trust-based overlay.  The rewired overlay should resist it
— its pseudonym links spread degree nearly uniformly.  This bench
removes the top-degree nodes of the *trust graph* from both topologies
and compares the damage, and also reports single-point-of-failure
statistics (articulation ratio) for both.
"""

import numpy as np

from repro.analysis import articulation_ratio, targeted_failure_curve
from repro.experiments import (
    format_table,
    make_config,
    make_trust_graph,
    run_overlay_experiment,
)

from conftest import SEED, emit

_FRACTIONS = (0.0, 0.05, 0.1, 0.2, 0.35)


class TestCelebrityAttack:
    def test_bench_hub_removal(self, benchmark, scale, results_dir):
        trust_graph = make_trust_graph(scale, f=0.5, seed=SEED)
        # Measure the overlay at full availability so the comparison
        # isolates topology (churn robustness is Figures 3/7/8).
        config = make_config(scale, alpha=0.9, f=0.5, seed=SEED)

        def run():
            result = run_overlay_experiment(
                trust_graph,
                config,
                horizon=scale.total_horizon / 2,
                measure_window=scale.measure_window / 2,
                with_churn=False,
            )
            overlay_snapshot = result.overlay.snapshot()
            # The attacker compromises the same celebrity *users* in
            # both topologies: removal follows the trust graph's hub
            # order everywhere.
            labels = trust_graph.node_ids
            hub_order = labels[np.lexsort((labels, -trust_graph.degrees()))].tolist()
            trust_points = targeted_failure_curve(
                trust_graph,
                fractions=_FRACTIONS,
                strategy="custom",
                removal_order=hub_order,
            )
            overlay_points = targeted_failure_curve(
                overlay_snapshot,
                fractions=_FRACTIONS,
                strategy="custom",
                removal_order=hub_order,
            )
            return {
                "trust_points": trust_points,
                "overlay_points": overlay_points,
                "trust_articulation": articulation_ratio(trust_graph),
                "overlay_articulation": articulation_ratio(overlay_snapshot),
            }

        outcome = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (
                point.removed_fraction,
                trust_point.disconnected,
                point.disconnected,
            )
            for trust_point, point in zip(
                outcome["trust_points"], outcome["overlay_points"]
            )
        ]
        emit(
            results_dir,
            "celebrity_attack",
            format_table(
                ["removed_fraction", "trust_disconnected", "overlay_disconnected"],
                rows,
                title=(
                    "Celebrity attack: removing top-degree nodes "
                    f"(articulation ratio: trust "
                    f"{outcome['trust_articulation']:.3f}, overlay "
                    f"{outcome['overlay_articulation']:.3f})"
                ),
            ),
        )

        trust_final = outcome["trust_points"][-1].disconnected
        overlay_final = outcome["overlay_points"][-1].disconnected
        # Hub compromise damages the trust graph measurably while the
        # overlay shrugs it off (its links are spread uniformly).
        assert trust_final > 0.05
        assert overlay_final < 0.5 * trust_final
        # The overlay has no more single points of failure than the
        # trust graph (usually none at all).
        assert outcome["overlay_articulation"] <= outcome["trust_articulation"]
