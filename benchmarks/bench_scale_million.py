"""Scale: a churned overlay through the round-based batch engine.

Every claim above 10^4 nodes (docs/node_plane.md) rests on
:class:`repro.core.BatchOverlay` keeping a node's whole protocol state
in a few hundred bytes of flat arrays.  This bench seats a ring-lattice
population under discretized exponential churn, runs full shuffle
rounds (mint, expiry, partner selection, shuffle-set exchange, link
refresh), and asserts that the overlay is healthy and that both the
engine's own accounting and the process's peak RSS stay under their
ceilings.  Default: 10^5 nodes x 5 rounds; ``REPRO_FULL=1``: 10^6 x 6.

Only deterministic columns go to ``results/scale_million.txt``; build
time, seconds per round, the time of one snapshot analysis (the online
snapshot and its component labels) and peak RSS are printed (run with
``-s``).
"""

import resource
import time

from repro import SystemConfig
from repro.core import BatchOverlay
from repro.experiments import PAPER, format_table

from conftest import SEED, emit

_BYTES_PER_NODE = 512
_PEAK_RSS_GB = 1.6


class TestScaleMillion:
    def test_bench_churned_rounds(self, benchmark, scale, results_dir):
        num_nodes, rounds = (1_000_000, 6) if scale is PAPER else (100_000, 5)
        config = SystemConfig(
            num_nodes=num_nodes,
            cache_size=16,
            shuffle_length=8,
            target_degree=12,
            min_pseudonym_links=8,
            availability=0.6,
            mean_offline_time=8.0,
            seed=SEED,
        )

        def run():
            started = time.perf_counter()
            overlay = BatchOverlay.build(config, extra_edges_per_node=4)
            built = time.perf_counter()
            overlay.run(rounds)
            return overlay, built - started, (time.perf_counter() - built) / rounds

        overlay, build_s, round_s = benchmark.pedantic(run, rounds=1, iterations=1)
        online = overlay.stats()["online_nodes"] / num_nodes
        degree = overlay.mean_out_degree()
        started = time.perf_counter()
        disconnected = overlay.analysis().fraction_disconnected()
        analysis_s = time.perf_counter() - started
        engine_bytes = overlay.memory_bytes()
        # The process high-water mark (KiB on Linux), snapshot included.
        peak_rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e9
        emit(
            results_dir,
            "scale_million",
            format_table(
                ["nodes", "rounds", "online", "mean_degree", "disconnected",
                 "engine_bytes", "bytes/node", "state_digest"],
                [(num_nodes, rounds, online, degree, disconnected,
                  engine_bytes, engine_bytes / num_nodes,
                  overlay.state_digest()[:16])],
                title="Scale: churned batch-engine rounds (alpha=0.6, Toff=8)",
            ),
        )
        print(
            f"build {build_s:.2f} s, {round_s:.2f} s/round, "
            f"analysis {analysis_s:.2f} s, peak RSS {peak_rss_gb:.2f} GB"
        )

        assert abs(online - config.availability) <= 0.02
        assert degree >= config.min_pseudonym_links
        assert disconnected <= 0.05
        assert engine_bytes <= _BYTES_PER_NODE * num_nodes
        assert peak_rss_gb <= _PEAK_RSS_GB
