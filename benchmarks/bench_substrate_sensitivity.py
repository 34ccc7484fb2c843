"""Ablation: trust-graph substrate sensitivity.

The evaluation uses Facebook-crawl samples; is the overlay's advantage
an artifact of that substrate?  This bench repeats the core comparison
(overlay vs trust graph at moderate churn) on three structurally
different trust graphs of matched size:

* the default synthetic Facebook-like graph (power law + clustering);
* a community-partitioned social graph (dense clusters, thin bridges —
  the worst case for a trust overlay);
* a Watts–Strogatz small world (high clustering, narrow degree
  distribution — no hubs at all).
"""

import networkx as nx
import numpy as np

from repro.experiments import (
    format_table,
    make_config,
    make_trust_graph,
    run_overlay_experiment,
)
from repro.graphs import (
    FlatSnapshot,
    generate_community_social_graph,
    sample_trust_graph,
)
from repro.rng import RandomStreams

from conftest import SEED, emit

_ALPHA = 0.3


def _substrates(scale):
    streams = RandomStreams(SEED)
    substrates = {"facebook-like": make_trust_graph(scale, f=0.5, seed=SEED)}

    community_source = generate_community_social_graph(
        scale.num_nodes * 4,
        num_communities=8,
        edges_per_node=8,
        intra_probability=0.95,
        rng=streams.substream("community-source"),
    )
    substrates["community"] = sample_trust_graph(
        community_source,
        scale.num_nodes,
        f=0.5,
        rng=streams.substream("community-sample"),
    )

    small_world = nx.connected_watts_strogatz_graph(scale.num_nodes, 8, 0.1, seed=SEED)
    ends = np.array(small_world.edges())
    substrates["small-world"] = FlatSnapshot.from_edge_positions(
        np.arange(scale.num_nodes), ends[:, 0], ends[:, 1]
    )
    return substrates


class TestSubstrateSensitivity:
    def test_bench_substrates(self, benchmark, scale, results_dir):
        config = make_config(scale, alpha=_ALPHA, f=0.5, seed=SEED)
        substrates = _substrates(scale)

        def run():
            outcomes = {}
            for name, graph in substrates.items():
                outcomes[name] = run_overlay_experiment(
                    graph,
                    config,
                    horizon=scale.total_horizon,
                    measure_window=scale.measure_window,
                )
            return outcomes

        outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (
                name,
                substrates[name].number_of_edges(),
                result.trust_disconnected,
                result.disconnected,
            )
            for name, result in outcomes.items()
        ]
        emit(
            results_dir,
            "substrate_sensitivity",
            format_table(
                ["substrate", "trust_edges", "trust_disconnected", "overlay_disconnected"],
                rows,
                title=f"Substrate sensitivity at alpha={_ALPHA}",
            ),
        )

        for name, result in outcomes.items():
            # The overlay stays robust on every substrate...
            assert result.disconnected < 0.1, f"overlay fragile on {name}"
            # ...and never does worse than the bare trust graph.
            assert result.disconnected <= result.trust_disconnected + 0.02, name