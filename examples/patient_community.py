#!/usr/bin/env python
"""Patient support community: lifetime tuning and epidemic updates.

Scenario from the paper's introduction: "a worldwide community of
patients with the same chronic illness trying to support each other
with information".  Privacy is paramount (nobody should learn the
member list), members have moderate availability, and the community
exchanges regular digest updates.

The script demonstrates the pseudonym-lifetime trade-off (paper §III-C
and Figure 7): shorter lifetimes are better for privacy — an observer
can correlate traffic to one pseudonym only briefly — but too short a
lifetime degrades connectivity because returning members find all their
pseudonym links expired.  It then disseminates a digest by epidemic
push gossip over the best configuration.

Run with:  python examples/patient_community.py
"""

import math

from repro import Overlay, SystemConfig
from repro.dissemination import EpidemicBroadcast
from repro.graphs import generate_social_graph, sample_trust_graph
from repro.rng import RandomStreams


def measure_lifetime(trust, base_config, ratio, horizon=150.0):
    config = base_config.replace(lifetime_ratio=ratio)
    overlay = Overlay.build(trust, config)
    overlay.start()
    overlay.run_until(horizon)
    return overlay, overlay.analysis().fraction_disconnected()


def main() -> None:
    streams = RandomStreams(seed=77)
    social = generate_social_graph(2500, rng=streams.substream("social"))
    trust = sample_trust_graph(social, 250, f=0.5, rng=streams.substream("invite"))

    base_config = SystemConfig(
        num_nodes=250,
        availability=0.4,
        mean_offline_time=30.0,
        cache_size=150,
        shuffle_length=24,
        target_degree=30,
        seed=77,
    )

    print("pseudonym-lifetime trade-off (alpha = 0.4):")
    print(f"{'ratio r':>10}  {'disconnected':>12}   privacy exposure window")
    overlays = {}
    for ratio in (1.0, 3.0, 9.0, math.inf):
        overlay, disconnected = measure_lifetime(trust, base_config, ratio)
        overlays[ratio] = overlay
        label = "Infinite" if math.isinf(ratio) else f"{ratio:g}"
        window = (
            "unbounded"
            if math.isinf(ratio)
            else f"{ratio * base_config.mean_offline_time:.0f} periods"
        )
        print(f"{label:>10}  {disconnected:>12.1%}   {window}")

    print(
        "\nr = 3 is the sweet spot: near-full connectivity with a "
        "bounded traffic-analysis window per pseudonym.\n"
    )

    # Disseminate a weekly digest over the r = 3 overlay.
    overlay = overlays[3.0]
    epidemic = EpidemicBroadcast(overlay, fanout=8, ttl=15)
    epidemic.install()
    online = overlay.online_ids()  # audience at broadcast time
    record = epidemic.broadcast(online[0], payload="weekly digest")
    overlay.run_until(overlay.sim.now + 3.0)
    reached = sum(record.latency_of(node) is not None for node in online)
    print(
        f"epidemic digest dissemination: reached {reached}/{len(online)} "
        f"({reached / len(online):.1%}), "
        f"p95 latency {record.latency_percentile(95.0):.2f} sp"
    )
    flood_estimate = overlay.snapshot().number_of_edges() * 2
    print(
        f"(flooding would send ~{flood_estimate} "
        f"messages; the epidemic used {record.forwards})"
    )
    assert record.forwards < flood_estimate, "the epidemic cost a flood"


if __name__ == "__main__":
    main()
