"""Extension: the price of privacy vs a centralized directory.

Section II-E rejects a centralized node directory because a compromise
leaks the entire membership in one shot; Whisper (related work) accepts
that trade.  This bench runs both designs side by side and quantifies
what the decentralized, pseudonym-based protocol pays for avoiding the
directory:

* **convergence** — the directory overlay is connected almost
  immediately; the gossip overlay needs some tens of shuffling periods;
* **steady-state robustness** — both end up comparable;
* **privacy under compromise** — breaching the directory exposes every
  identity and the full link structure; compromising any single node of
  the gossip overlay exposes only its own trust neighborhood.
"""

from repro.baselines import CentralizedOverlay
from repro.core import Overlay
from repro.experiments import format_table, make_config, make_trust_graph
from repro.graphs import SnapshotAnalysis
from repro.metrics import MetricsCollector

from conftest import SEED, emit

_ALPHA = 0.5


class TestCentralizedBaseline:
    def test_bench_price_of_privacy(self, benchmark, scale, results_dir):
        trust_graph = make_trust_graph(scale, f=0.5, seed=SEED)
        config = make_config(scale, alpha=_ALPHA, f=0.5, seed=SEED)

        def run():
            gossip = Overlay.build(trust_graph, config)
            gossip_collector = MetricsCollector(gossip, interval=1.0)
            gossip.start()
            gossip_collector.start()
            gossip.run_until(scale.total_horizon)

            central = CentralizedOverlay.build(config)
            central.start()
            central.run_until(scale.total_horizon)
            return {
                "gossip_convergence": gossip_collector.convergence_time(0.05),
                "gossip_stable": gossip_collector.disconnected.tail_mean(0.25),
                "gossip_messages": gossip.stats().messages_sent,
                "central_stable": SnapshotAnalysis(
                    central.snapshot()
                ).fraction_disconnected(),
                "central_messages": central.messages_sent,
                "breach": central.directory.breach(),
            }

        outcome = benchmark.pedantic(run, rounds=1, iterations=1)
        breach = outcome["breach"]
        rows = [
            (
                "pseudonym gossip (this paper)",
                outcome["gossip_stable"],
                outcome["gossip_convergence"],
                outcome["gossip_messages"],
                "one node's friends",
            ),
            (
                "central directory (rejected)",
                outcome["central_stable"],
                0.0,
                outcome["central_messages"],
                f"{breach.identities_exposed} identities + "
                f"{len(breach.links)} links",
            ),
        ]
        emit(
            results_dir,
            "baseline_centralized",
            format_table(
                [
                    "design",
                    "disconnected",
                    "convergence_sp",
                    "messages",
                    "single compromise leaks",
                ],
                rows,
                title=f"Price of privacy (alpha={_ALPHA})",
            ),
        )

        # Comparable steady-state robustness...
        assert outcome["gossip_stable"] < 0.05
        assert outcome["central_stable"] < 0.05
        # ...for a bounded convergence price...
        assert outcome["gossip_convergence"] is not None
        assert outcome["gossip_convergence"] < scale.total_horizon / 2
        # ...while the directory's compromise surface is total.
        assert breach.identities_exposed == config.num_nodes
