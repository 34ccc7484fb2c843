#!/usr/bin/env python
"""Threat-model walkthrough: what can observers actually learn?

Reproduces the reasoning of the paper's Section III-E on a live
system:

1. **Static exposure** — what a colluding coalition's position in the
   trust graph gives it (known IDs, vertex-cut power).
2. **Size estimation** (III-E4) — observers count distinct live
   pseudonyms to estimate the group size; allowed by the privacy model.
3. **Timing-analysis link detection** (III-E2) — colluders inject a
   marked pseudonym and watch for its reappearance; the paper argues
   success is unreliable, which the measured precision shows.
4. **External observer view** — with the mixnet link layer, the traffic
   log shows that no sender-receiver channel is ever directly visible.

Run with:  python examples/attack_analysis.py
"""

import numpy as np

from repro import Overlay, SystemConfig
from repro.attacks import (
    ObserverCoalition,
    coalition_exposure,
    direct_node_channel_fraction,
    estimate_overlay_size,
    run_link_detection_trials,
)
from repro.graphs import FlatSnapshot, generate_social_graph, sample_trust_graph
from repro.privlink import TrafficLog, make_mixnet_link_layer
from repro.rng import RandomStreams


def main() -> None:
    streams = RandomStreams(seed=31337)
    social = generate_social_graph(1500, rng=streams.substream("social"))
    trust = sample_trust_graph(social, 120, f=0.5, rng=streams.substream("invite"))

    config = SystemConfig(
        num_nodes=120,
        availability=0.6,
        mean_offline_time=20.0,
        cache_size=80,
        shuffle_length=12,
        target_degree=15,
        seed=31337,
    )

    # 1. Static exposure of a 3-node coalition.
    coalition_members = [0, 1, 2]
    exposure = coalition_exposure(trust, coalition_members)
    print("1. static coalition exposure")
    print(f"   members: {coalition_members}")
    print(f"   IDs known (members + their friends): {len(exposure.known_ids)}")
    print(f"   forms a vertex cut: {exposure.forms_vertex_cut}")
    print(f"   certainly-inferable trust edges: {len(exposure.isolated_pairs)}")

    # 2. Size estimation by internal observers.
    overlay = Overlay.build(trust, config)
    coalition = ObserverCoalition(overlay, coalition_members)
    coalition.install()
    overlay.start()
    overlay.run_until(55.0)
    estimate = estimate_overlay_size(overlay, coalition, window=50.0)
    print("\n2. overlay-size estimation (paper III-E4: permitted knowledge)")
    print(f"   true size: {estimate.true_size}")
    print(f"   live-pseudonym estimate: {estimate.live_value_estimate}")
    print(f"   relative error: {estimate.relative_error:.1%}")

    # 3. Timing-analysis link detection.
    print("\n3. timing-analysis link detection (paper III-E2)")
    pairs = []
    for observer_n in coalition_members:
        neighbors = list(trust.neighbors(observer_n))
        if len(neighbors) >= 2:
            pairs.append((observer_n, neighbors[0], observer_n, neighbors[1]))
    outcomes = run_link_detection_trials(overlay, pairs, detection_window=4.0)
    detected = sum(outcome.detected_via_b for outcome in outcomes)
    correct = sum(outcome.correct for outcome in outcomes)
    print(f"   trials: {len(outcomes)}, detections: {detected}, "
          f"correct conclusions: {correct}")
    print("   (low, unreliable detection matches the paper's argument)")

    # 3b. Vertex-cut flow control (III-E3), on a purpose-built topology.
    print("\n3b. vertex-cut flow control (paper III-E3)")
    from repro.attacks import install_flow_control, measure_flow_control

    # Two 12-cliques joined by the single edge 11-12.
    clique = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    ends = np.array(clique + [(u + 12, v + 12) for u, v in clique] + [(11, 12)])
    barbell = FlatSnapshot.from_edge_positions(np.arange(24), ends[:, 0], ends[:, 1])
    cut_config = SystemConfig(
        num_nodes=24,
        availability=0.9,
        mean_offline_time=10.0,
        cache_size=40,
        shuffle_length=8,
        target_degree=18,
        seed=7,
    )
    for deviate in (False, True):
        cut_overlay = Overlay.build(barbell, cut_config, with_churn=False)
        if deviate:
            install_flow_control(cut_overlay, [11, 12])
        cut_overlay.start()
        cut_overlay.run_until(26.0)
        outcome = measure_flow_control(cut_overlay, [11, 12])
        kind = "deviating" if deviate else "honest"
        print(
            f"   {kind:>9} cut {{11,12}}: "
            f"{outcome.cross_side_links} uncontrolled cross-side links, "
            f"{outcome.coalition_mediated_links} coalition-mediated "
            f"({outcome.uncontrolled_fraction:.0%} escape the coalition)"
        )
    print("   a deviating vertex cut controls (almost) all cross-side flow,")
    print("   as Section III-E3 argues — the honest protocol does not.")

    # 4. External observer against the mixnet link layer.
    print("\n4. external observer vs the mixnet link layer")
    traffic = TrafficLog(enabled=True)
    mix_config = config.replace(num_nodes=40, seed=99)
    mix_trust = sample_trust_graph(
        social, 40, f=0.5, rng=streams.substream("mix-invite")
    )
    mix_overlay = Overlay.build(
        mix_trust,
        mix_config,
        link_layer_factory=lambda sim, rng: make_mixnet_link_layer(
            sim, rng, num_relays=12, circuit_length=3, traffic=traffic
        ),
    )
    mix_overlay.start()
    mix_overlay.run_until(10.0)
    period = traffic.window(5.0, 6.0)  # what one shuffle period shows
    direct = direct_node_channel_fraction(traffic)
    print(f"   observed channel records: {len(traffic)} ({len(period)} in period 5)")
    print(f"   share on direct node-to-node channels: {direct:.0%}")
    assert direct == 0.0 and direct_node_channel_fraction(period) == 0.0, (
        "mixnet must never expose a direct channel"
    )
    print("   every observed channel touches a relay — senders and")
    print("   receivers are never linkable by channel inspection alone.")


if __name__ == "__main__":
    main()
