#!/usr/bin/env python
"""A group that grows by invitation while the overlay is live.

The paper's sampling model mimics "an invitation model for
participating in the group, which is common in real-world applications
where privacy is a concern", and notes that *adding* nodes or trust
edges raises no privacy concerns (only revocation is future work).
This example exercises exactly that: a support community starts with a
seed of 120 members and grows to 220 while the overlay keeps running
under churn — every newcomer knows only their inviters, bootstraps from
empty protocol state, and is woven into the random overlay by ordinary
gossip.

Run with:  python examples/growing_group.py
"""

from repro import Overlay, SystemConfig
from repro.graphs import SnapshotAnalysis, generate_social_graph, sample_trust_graph
from repro.rng import RandomStreams


def report(overlay, label):
    disconnected = overlay.analysis().fraction_disconnected()
    trust = SnapshotAnalysis(overlay.trust_snapshot()).fraction_disconnected()
    print(
        f"{label:>28}: {len(overlay.nodes):3d} members, "
        f"{len(overlay.online_ids()):3d} online, "
        f"overlay {disconnected:5.1%} disconnected "
        f"(trust graph {trust:5.1%})"
    )


def main() -> None:
    streams = RandomStreams(seed=1984)
    social = generate_social_graph(2500, rng=streams.substream("social"))
    trust = sample_trust_graph(social, 120, f=0.5, rng=streams.substream("seed-group"))

    config = SystemConfig(
        num_nodes=120,
        availability=0.5,
        mean_offline_time=30.0,
        lifetime_ratio=3.0,
        cache_size=120,
        shuffle_length=20,
        target_degree=25,
        seed=1984,
    )
    overlay = Overlay.build(trust, config)
    overlay.start()
    overlay.run_until(80.0)
    report(overlay, "seed group stabilized")

    # Growth: in five waves, members invite friends (1-3 inviters each).
    invite_rng = streams.substream("growth")
    for wave in range(5):
        for _ in range(20):
            population = len(overlay.nodes)
            inviter_count = int(invite_rng.integers(1, 4))
            inviters = [
                int(node) for node in
                invite_rng.choice(population, size=inviter_count, replace=False)
            ]
            overlay.add_node(inviters)
        overlay.run_until(overlay.sim.now + 25.0)
        report(overlay, f"after wave {wave + 1} (+20 members)")

    # Newcomers are full citizens: check the last-added node's links.
    newest = overlay.nodes[-1]
    print(
        f"\nnewest member (id {newest.node_id}): "
        f"{newest.links.trusted_degree} trusted links, "
        f"{len(newest.valid_pseudonym_links())} pseudonym links, "
        f"{newest.counters.messages_sent} messages sent"
    )
    print(
        "each newcomer disclosed its identity only to its inviters; the "
        "rest of the group sees only pseudonyms."
    )


if __name__ == "__main__":
    main()
