"""Ablation: pseudonym-service backend (interactive vs storage-backed).

Section III-B offers two realizations of the pseudonym service: an
interactive rendezvous (Tor-hidden-service-like; messages to an offline
owner are lost — the paper's ideal model) and a third-party storage
service ("email or a DHT") where messages queue until the owner polls.
This bench runs the full overlay on both and compares robustness at low
availability, where queued delivery plausibly helps rejoining nodes
refresh their links faster.
"""

from repro.experiments import (
    format_table,
    make_config,
    make_trust_graph,
    run_overlay_experiment,
)
from repro.privlink import (
    IdealAnonymityService,
    LinkLayer,
    MailboxPseudonymService,
    MailboxStore,
    NodeDirectory,
)

from conftest import SEED, emit

_ALPHA = 0.25


def _mailbox_link_layer_factory(store):
    def factory(sim, rng):
        directory = NodeDirectory()
        anonymity = IdealAnonymityService(sim, directory, rng, max_latency=0.05)
        pseudonym = MailboxPseudonymService(
            sim, directory, store=store, poll_interval=0.5
        )
        return LinkLayer(directory, anonymity, pseudonym)

    return factory


class TestBackendAblation:
    def test_bench_pseudonym_backends(self, benchmark, scale, results_dir):
        trust_graph = make_trust_graph(scale, f=0.5, seed=SEED)
        config = make_config(scale, alpha=_ALPHA, f=0.5, seed=SEED)
        store = MailboxStore(
            capacity_per_box=64, retention=2.0 * scale.mean_offline_time
        )

        def run():
            ideal = run_overlay_experiment(
                trust_graph,
                config,
                horizon=scale.total_horizon,
                measure_window=scale.measure_window,
            )
            # The mailbox variant needs its own link layer.
            mailbox = run_overlay_experiment(
                trust_graph,
                config,
                horizon=scale.total_horizon,
                measure_window=scale.measure_window,
                link_layer_factory=_mailbox_link_layer_factory(store),
            )
            return {
                "ideal": ideal.disconnected,
                "mailbox": mailbox.disconnected,
                "trust": ideal.trust_disconnected,
            }

        outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            ("ideal (drop while offline)", outcomes["ideal"]),
            ("mailbox (queue + poll)", outcomes["mailbox"]),
            ("trust baseline", outcomes["trust"]),
        ]
        emit(
            results_dir,
            "ablation_backend",
            format_table(
                ["pseudonym backend", "disconnected"],
                rows,
                title=(
                    f"Ablation: pseudonym-service backends at alpha={_ALPHA} "
                    f"(mailbox stored {store.stored_count} messages, "
                    f"{store.expired_count} expired unread)"
                ),
            ),
        )

        # Both backends must clearly beat the trust baseline; the
        # storage-backed service must not *hurt* robustness.
        assert outcomes["ideal"] < 0.6 * outcomes["trust"] + 0.02
        assert outcomes["mailbox"] < 0.6 * outcomes["trust"] + 0.02
        assert outcomes["mailbox"] <= outcomes["ideal"] + 0.05
