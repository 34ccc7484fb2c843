#!/usr/bin/env python
"""Dissident micro-news: privacy-preserving broadcast under heavy churn.

Scenario from the paper's introduction: "a group of dissidents in a
country that limits freedom of expression attempting to reach out to a
broader audience".  Members are online rarely (alpha = 0.3 — think
mobile devices and intermittent connectivity), and no participant may
learn who else belongs to the group beyond their own friends.

The script compares broadcasting a news item by controlled flooding

* over the bare friend-to-friend (trust) overlay, and
* over the robust overlay after the maintenance protocol has run,

reporting the fraction of online members reached and the latency.

Run with:  python examples/dissident_broadcast.py
"""

from repro import Overlay, SystemConfig
from repro.dissemination import EpidemicBroadcast
from repro.graphs import generate_social_graph, sample_trust_graph
from repro.rng import RandomStreams


def build_overlay(trust, config, warmup):
    overlay = Overlay.build(trust, config)
    overlay.start()
    overlay.run_until(warmup)
    return overlay


def flood_news(overlay):
    """Flood one item from an online member; returns (record, audience)."""
    online = overlay.online_ids()  # members online at broadcast time
    if not online:
        raise RuntimeError("nobody is online; rerun with higher availability")
    flood = EpidemicBroadcast(overlay, fanout=None, ttl=15)
    flood.install()
    record = flood.broadcast(online[0], payload="manifesto #1")
    overlay.run_until(overlay.sim.now + 3.0)
    return record, online


def describe(record, audience):
    """Share of ``audience`` reached, plus latency and cost."""
    reached = sum(record.latency_of(node) is not None for node in audience)
    share = reached / len(audience)
    return share, (
        f"reached {reached}/{len(audience)} ({share:.1%}), "
        f"p95 latency {record.latency_percentile(95.0):.2f} sp, "
        f"forwards {record.forwards}"
    )


def main() -> None:
    streams = RandomStreams(seed=451)
    social = generate_social_graph(2500, rng=streams.substream("social"))
    trust = sample_trust_graph(social, 250, f=0.4, rng=streams.substream("invite"))

    config = SystemConfig(
        num_nodes=250,
        availability=0.3,          # heavy churn
        mean_offline_time=30.0,
        lifetime_ratio=3.0,
        cache_size=150,
        shuffle_length=24,
        target_degree=30,
        seed=451,
    )

    # --- baseline: flood over trust links only ------------------------
    # A pure F2F overlay is this protocol with zero pseudonym links.
    baseline_config = config.replace(target_degree=1, min_pseudonym_links=0)
    baseline = build_overlay(trust, baseline_config, warmup=120.0)
    baseline_share, baseline_line = describe(*flood_news(baseline))

    # --- robust overlay: flood over trust + pseudonym links -----------
    robust = build_overlay(trust, config, warmup=120.0)
    robust_share, robust_line = describe(*flood_news(robust))

    print("flooding a news item to the group (alpha = 0.3):\n")
    print(f"  bare F2F overlay:  {baseline_line}")
    print(f"  robust overlay:    {robust_line}\n")
    gain = robust_share - baseline_share
    print(
        f"robust overlay reaches {gain:+.1%} more of the online group; "
        "no member ever learned another member's identity beyond their "
        "own friends."
    )
    assert robust_share >= baseline_share, "the robust overlay reached fewer"


if __name__ == "__main__":
    main()
