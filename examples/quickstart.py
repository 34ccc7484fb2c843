#!/usr/bin/env python
"""Quickstart: build a robust privacy-preserving overlay in ~40 lines.

Walks through the library's whole pipeline:

1. generate a synthetic Facebook-like social graph,
2. sample a trust graph with the paper's invitation (f) model,
3. run the overlay-maintenance protocol under churn,
4. compare the overlay's robustness against the bare trust graph.

Run with:  python examples/quickstart.py
"""

from repro import Overlay, SystemConfig
from repro.graphs import SnapshotAnalysis, generate_social_graph, sample_trust_graph
from repro.rng import RandomStreams


def main() -> None:
    streams = RandomStreams(seed=2012)

    # 1. A synthetic social graph standing in for a Facebook crawl, as a
    #    CSR adjacency: node u's friends are indices[indptr[u]:indptr[u + 1]].
    social = generate_social_graph(3000, rng=streams.substream("social"))
    indptr, indices = social
    print(f"social graph: {len(indptr) - 1} nodes, {len(indices) // 2} edges")

    # 2. A 300-user privacy-sensitive group formed by invitations, each
    #    user inviting about half of their friends (f = 0.5).
    trust = sample_trust_graph(social, 300, f=0.5, rng=streams.substream("invite"))
    print(f"trust graph:  {trust.number_of_nodes()} nodes, {trust.number_of_edges()} edges")

    # 3. Run the overlay protocol: nodes are online half the time on
    #    average, pseudonyms live 3x the mean offline period.
    config = SystemConfig(
        num_nodes=300,
        availability=0.5,
        mean_offline_time=30.0,
        lifetime_ratio=3.0,
        cache_size=150,
        shuffle_length=24,
        target_degree=30,
        seed=2012,
    )
    overlay = Overlay.build(trust, config)
    overlay.start()
    print("running 150 shuffling periods under churn ...")
    overlay.run_until(150.0)

    # 4. Compare the overlay against the bare trust graph.
    online = overlay.online_ids()
    trust = SnapshotAnalysis(overlay.trust_snapshot())
    print(f"\nonline nodes: {len(online)} / {config.num_nodes}")
    print(
        "disconnected from the largest component:\n"
        f"  bare trust graph: {trust.fraction_disconnected():6.1%}\n"
        f"  robust overlay:   {overlay.analysis().fraction_disconnected():6.1%}"
    )
    stats = overlay.stats()
    print(
        f"\nprotocol cost: {stats.messages_sent} messages, "
        f"{stats.pseudonyms_created} pseudonyms minted, "
        f"{stats.link_replacements} link replacements"
    )


if __name__ == "__main__":
    main()
