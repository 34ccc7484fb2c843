"""The six benchmark workloads, each one path a user of ``repro`` takes.

Every workload is a closed loop in one process: the next op starts when
the previous one returns.  ``op`` is the untraced form — the public call
a user makes, timed as a whole.  ``op_traced`` does the same simulated
work but drives the layers beneath that call one by one, through their
public functions, with a span around each; nothing inside ``repro`` is
instrumented.  ``check`` runs outside the timed op and returns how many
units it looked at and how many failed.

Sizes are fixed by ``--seconds`` (not by a deadline) so that the work
done, and therefore every digest and counter, is a pure function of
``(seed, seconds)``.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import Overlay, RandomStreams, Simulator, SystemConfig
from repro.core import BatchOverlay
from repro.dissemination import BatchBroadcastEngine, ChannelSnapshot
from repro.experiments.figures import AvailabilityPoint, availability_sweep
from repro.experiments.runner import static_churn_metrics
from repro.experiments.scenarios import (
    QUICK,
    SMOKE,
    clear_graph_cache,
    make_config,
    make_trust_graph,
)
from repro.graphs import SnapshotAnalysis, erdos_renyi_gnm
from repro.metrics import MetricsCollector, TimeSeries
from repro.net.clock import Scheduler
from repro.net.codec import (
    CodecError,
    ShuffleOffer,
    ShuffleReply,
    decode_frame,
    encode_frame,
)
from repro.net.endpoint import NetEndpoint
from repro.net.harness import (
    MeshSpec,
    mesh_system_config,
    ring_trust_graph,
    run_loopback_mesh,
)
from repro.net.linklayer import MeshLinkLayer
from repro.net.transport import LoopbackNetwork, Transport
from repro.parallel.shard import ShardedOverlay, ShardOptions
from repro.privlink import TrafficLog, make_mixnet_link_layer

from spans import Tracer

__all__ = ["WORKLOADS", "Workload"]

_clock = time.perf_counter


def _median(values: List[float]) -> float:
    return float(np.median(values)) if values else 0.0


class Workload:
    """Base: the runner calls setup (several times), ops, finish, teardown."""

    name = ""
    #: What ``work_per_s`` counts.
    work_unit = ""
    #: What ``attempted`` / ``failed`` count.
    checked_unit = "op"
    #: Set-up is repeated so ``setup_s`` can be a median: three times
    #: where it takes seconds, more often where it takes milliseconds.
    setup_repeats = 3

    def __init__(self, seed: int, seconds: float, tracer: Tracer, tiny: bool) -> None:
        self.seed = seed
        self.tracer = tracer
        self.tiny = tiny
        self.ops = 0
        self.work = 0
        #: Simulated statistics that must repeat bit-for-bit at one
        #: seed, and agree between the traced and the untraced run.
        self.exact: Dict[str, Any] = {}
        #: Statistics the two runs may differ on, within a tolerance.
        self.approx: Dict[str, float] = {}
        #: Extra facts for the human-readable report.
        self.notes: Dict[str, Any] = {}

    def op_weight(self, index: int) -> float:
        """Nominal cost of op ``index`` relative to the others.

        ``op_s_p50`` is the median of op wall ÷ weight, scaled back by
        the mean weight, so that a workload whose ops differ severalfold
        by design still reports a median over all of them.
        """
        return 1.0

    def scaled(self, per_ten_seconds: int, seconds: float, least: int) -> int:
        """Op count for a run of ``seconds`` (``least`` when tiny)."""
        if self.tiny:
            return least
        return max(least, round(per_ten_seconds * seconds / 10.0))

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what setup built (called before every re-setup)."""

    def op(self, index: int) -> Any:
        raise NotImplementedError

    def op_traced(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, index: int, out: Any) -> Tuple[int, int]:
        raise NotImplementedError

    def finish(self) -> bool:
        """Run-level checks; False fails every op of the run."""
        return True

    def layers(self) -> Dict[str, float]:
        """Per-layer metrics of a traced run."""
        return {}


# ----------------------------------------------------------------------
# figure_sweep — the researcher path (repro fig3)
# ----------------------------------------------------------------------


class FigureSweep(Workload):
    name = "figure_sweep"
    work_unit = "simulated node-periods"
    checked_unit = "sweep point"
    setup_repeats = 7
    alphas = (0.25, 0.5, 0.75)
    #: Cost of a point relative to the alpha = 0.25 one (measured
    #: 0.8 / 2.8 / 6.5 s): more nodes online, more events.
    weights = {0.25: 1.0, 0.5: 3.5, 0.75: 8.0}
    f = 0.5

    def __init__(self, seed, seconds, tracer, tiny):
        super().__init__(seed, seconds, tracer, tiny)
        if tiny:
            self.scale = dataclasses.replace(
                SMOKE, stabilization_horizon=16.0, measure_window=8.0
            )
        else:
            self.scale = dataclasses.replace(
                QUICK, stabilization_horizon=40.0, measure_window=20.0
            )
        # A group is five of the six points of two trust graphs: the
        # second graph's alpha = 0.75 point alone costs a third of the
        # run.
        groups = self.scaled(1, seconds, 1)
        self.graph_seeds = [seed + 7919 * index for index in range(2 * groups)]
        self.points = [
            (graph_seed, alpha)
            for index, graph_seed in enumerate(self.graph_seeds)
            for alpha in (self.alphas if index % 2 == 0 else self.alphas[:2])
        ]
        self.ops = len(self.points)
        self.counts = {"events": 0, "messages_sent": 0, "link_replacements": 0,
                       "pseudonyms_created": 0, "samples": 0}

    def op_weight(self, index: int) -> float:
        return self.weights[self.points[index][1]]

    def setup(self) -> None:
        clear_graph_cache()
        with self.tracer.span("graphs.trust_graph"):
            for graph_seed in self.graph_seeds:
                make_trust_graph(self.scale, self.f, graph_seed)

    def op(self, index: int) -> AvailabilityPoint:
        graph_seed, alpha = self.points[index]
        sweep = availability_sweep(
            self.scale, f=self.f, seed=graph_seed, alphas=[alpha], workers=1
        )
        return sweep.points[0]

    def op_traced(self, index: int) -> AvailabilityPoint:
        """One sweep point with the collector's sampling driven by hand.

        Same overlay, same streams, same baselines as
        ``availability_sweep``; the collector's scheduled event is
        replaced by sampling after each ``run_until(t)``, which may see
        same-instant protocol events the collector's own event would
        have preceded (see ``bench.trace_stat_delta``).
        """
        span = self.tracer.span
        scale = self.scale
        graph_seed, alpha = self.points[index]
        trust_graph = make_trust_graph(scale, self.f, graph_seed)
        config = make_config(scale, alpha, f=self.f, lifetime_ratio=3.0, seed=graph_seed)
        with span("core.protocol.build"):
            overlay = Overlay.build(trust_graph, config)
            overlay.start()
        rng = overlay.substream("collector")
        disconnected = TimeSeries("overlay disconnected fraction")
        path_length = TimeSeries("overlay normalized path length")
        trust_analysis: Optional[SnapshotAnalysis] = None
        horizon = int(scale.total_horizon)
        for sample in range(1, horizon + 1):
            now = float(sample)
            with span("core.protocol.run"):
                overlay.run_until(now)
            with span("metrics.snapshot"):
                online_ids = overlay.online_ids()
                snapshot = overlay.snapshot_fast(online_ids=online_ids)
                trust_snapshot = overlay.trust_snapshot_fast(online_ids=online_ids)
            with span("metrics.components"):
                analysis = SnapshotAnalysis(snapshot)
                disconnected.append(now, analysis.fraction_disconnected())
                if trust_analysis is None or trust_analysis.snapshot is not trust_snapshot:
                    trust_analysis = SnapshotAnalysis(trust_snapshot)
                trust_analysis.fraction_disconnected()
            if sample % scale.path_length_every == 0:
                with span("metrics.path_length"):
                    path_length.append(
                        now,
                        analysis.normalized_path_length(
                            config.num_nodes, sample_sources=scale.path_sources, rng=rng
                        ),
                    )
                    trust_analysis.normalized_path_length(
                        config.num_nodes, sample_sources=scale.path_sources, rng=rng
                    )
            with span("metrics.degrees"):
                overlay.online_out_degrees(now, online_ids)
                stats = overlay.stats(online_ids)
        with span("core.protocol.snapshot"):
            online_ids = overlay.online_ids()
            overlay.snapshot(online_only=True, online_ids=online_ids)
            overlay.trust_snapshot(online_ids=online_ids)
            full_edges = overlay.snapshot(online_only=False).number_of_edges()
        with span("experiments.baselines"):
            baseline_rng = RandomStreams(graph_seed).substream(
                "baseline", str(alpha), str(self.f)
            )
            trust_static = static_churn_metrics(
                trust_graph, alpha, scale.mask_draws, baseline_rng,
                path_sources=scale.path_sources,
            )
            random_graph = erdos_renyi_gnm(config.num_nodes, full_edges, rng=baseline_rng)
            random_static = static_churn_metrics(
                random_graph, alpha, scale.mask_draws, baseline_rng,
                path_sources=scale.path_sources,
            )
        self.counts["events"] += overlay.sim.events_processed
        self.counts["messages_sent"] += stats.messages_sent
        self.counts["link_replacements"] += stats.link_replacements
        self.counts["pseudonyms_created"] += stats.pseudonyms_created
        self.counts["samples"] += horizon
        tail = min(1.0, scale.measure_window / scale.total_horizon)
        return AvailabilityPoint(
            alpha=alpha,
            trust_disconnected=trust_static.disconnected,
            overlay_disconnected=disconnected.tail_mean(tail),
            random_disconnected=random_static.disconnected,
            trust_path_length=trust_static.path_length,
            overlay_path_length=path_length.tail_mean(0.5) if len(path_length) else 0.0,
            random_path_length=random_static.path_length,
        )

    def check(self, index: int, point: AvailabilityPoint) -> Tuple[int, int]:
        self.work += int(self.scale.num_nodes * self.scale.total_horizon)
        values = dataclasses.astuple(point)
        ok = all(math.isfinite(value) for value in values)
        ok = ok and point.overlay_path_length > 0
        # The paper's Figure-3 shape: below half availability the overlay
        # keeps more nodes connected than the trust graph alone does
        # (not expected of the 80-node selfcheck size).
        if point.alpha <= 0.5 and not self.tiny:
            ok = ok and point.overlay_disconnected <= point.trust_disconnected
        self.exact[f"point{index}"] = [
            point.alpha, point.trust_disconnected, point.random_disconnected,
            point.trust_path_length, point.random_path_length,
        ]
        self.approx[f"point{index}.overlay_disconnected"] = point.overlay_disconnected
        self.notes[f"point{index}"] = dataclasses.asdict(point)
        return 1, 0 if ok else 1

    def layers(self) -> Dict[str, float]:
        tracer = self.tracer
        run_total = tracer.total("core.protocol.run")
        events = self.counts["events"]
        self.exact["sim.events"] = events
        self.exact["core.protocol.pseudonyms_created"] = self.counts["pseudonyms_created"]
        self.exact["metrics.samples"] = self.counts["samples"]
        return {
            "graphs.trust_graph_s": tracer.median("graphs.trust_graph", "setup"),
            "core.protocol.build_s": tracer.median("core.protocol.build"),
            "core.protocol.run_s": tracer.median("core.protocol.run"),
            "sim.events": events,
            "sim.event_us": 1e6 * run_total / events if events else 0.0,
            "core.protocol.messages_sent": self.counts["messages_sent"],
            "core.protocol.link_replacements": self.counts["link_replacements"],
            "core.protocol.pseudonyms_created": self.counts["pseudonyms_created"],
            "metrics.snapshot_s": tracer.median("metrics.snapshot"),
            "metrics.components_s": tracer.median("metrics.components"),
            "metrics.path_length_s": tracer.median("metrics.path_length"),
            "metrics.samples": self.counts["samples"],
            "experiments.baselines_s": tracer.median("experiments.baselines"),
        }


# ----------------------------------------------------------------------
# the 10^5-node batch engine, shared by three workloads
# ----------------------------------------------------------------------


def batch_config(seed: int, tiny: bool) -> SystemConfig:
    """The ``million_node_churn`` configuration at 10^5 nodes."""
    return SystemConfig(
        num_nodes=20_000 if tiny else 100_000,
        cache_size=16,
        shuffle_length=8,
        target_degree=12,
        min_pseudonym_links=8,
        availability=0.6,
        mean_offline_time=8.0,
        seed=seed,
    )


WARM_ROUNDS = 3


def build_warm_overlay(config: SystemConfig, tracer: Tracer, num_shards: int = 1) -> BatchOverlay:
    """The set-up the three batch-engine workloads share."""
    with tracer.span("core.batch.build"):
        overlay = BatchOverlay.build(
            config, extra_edges_per_node=4, num_shards=num_shards
        )
    with tracer.span("core.batch.warmup"):
        overlay.run(WARM_ROUNDS)
    return overlay


class BatchChurn(Workload):
    name = "batch_churn"
    work_unit = "node-rounds"
    checked_unit = "round"
    analysis_every = 4

    def __init__(self, seed, seconds, tracer, tiny):
        super().__init__(seed, seconds, tracer, tiny)
        self.config = batch_config(seed, tiny)
        # Four rounds, then one analysis of the snapshot, as ops of their
        # own: folded into every fourth round they would make a quarter
        # of the ops half as long again and the median op a noisier one.
        groups = self.scaled(2, seconds, 1)
        self.is_round = ([True] * self.analysis_every + [False]) * groups
        self.ops = len(self.is_round)
        self.overlay: Optional[BatchOverlay] = None
        self.fractions: List[float] = []
        self.online_node_rounds = 0
        self.warm_counters: Dict[str, int] = {}

    def setup(self) -> None:
        self.overlay = None  # free the last repeat's before building anew
        self.overlay = build_warm_overlay(self.config, self.tracer)
        self.warm_counters = self.overlay.stats()

    def op(self, index: int):
        overlay = self.overlay
        if self.is_round[index]:
            overlay.step()
            return None
        fraction = overlay.analysis().fraction_disconnected()
        # The last op of the run also takes the state digest.
        digest = overlay.state_digest() if index == self.ops - 1 else None
        return fraction, digest

    def op_traced(self, index: int):
        """``BatchOverlay.step`` replayed phase by phase (same digest)."""
        span = self.tracer.span
        overlay = self.overlay
        if not self.is_round[index]:
            with span("core.batch.snapshot"):
                snapshot = overlay.snapshot()
            with span("graphs.analysis"):
                fraction = SnapshotAnalysis(snapshot).fraction_disconnected()
            digest = None
            if index == self.ops - 1:
                with span("core.batch.digest"):
                    digest = overlay.state_digest()
            return fraction, digest
        engines = overlay.engines
        overlay.round += 1
        now = float(overlay.round)
        with span("churn.step"):
            overlay.churn.step()
        pairs_for = {shard: [] for shard in range(overlay.num_shards)}
        with span("core.batch.begin_round"):
            for engine in engines:
                for dst, batch in engine.begin_round(now).items():
                    pairs_for[dst].append(batch)
        sets_for = {shard: [] for shard in range(overlay.num_shards)}
        with span("core.batch.build_sets"):
            for engine in engines:
                out = engine.build_sets(pairs_for[engine.shard_id], now)
                for dst, batches in out.items():
                    sets_for[dst].extend(batches)
        with span("core.batch.absorb"):
            for engine in engines:
                engine.absorb(sets_for[engine.shard_id], now)
        return None

    def check(self, index: int, out) -> Tuple[int, int]:
        overlay = self.overlay
        config = self.config
        if out is not None:
            fraction, digest = out
            self.fractions.append(fraction)
            if digest is not None:
                self.exact["state_digest"] = digest
            return 0, 0
        self.work += config.num_nodes
        self.online_node_rounds += overlay.churn.online_count()
        ok = abs(overlay.churn.online_fraction() - config.availability) <= 0.02
        ok = ok and overlay.mean_out_degree() >= config.min_pseudonym_links
        return 1, 0 if ok else 1

    def finish(self) -> bool:
        overlay = self.overlay
        self.exact["stats"] = overlay.stats()
        self.exact["fraction_disconnected"] = self.fractions
        self.exact["engine_bytes"] = overlay.memory_bytes()
        self.notes["mean_out_degree"] = overlay.mean_out_degree()
        return bool(self.fractions) and self.fractions[-1] <= 0.05

    def layers(self) -> Dict[str, float]:
        tracer = self.tracer
        stats = self.exact["stats"]
        delta = {key: stats[key] - self.warm_counters[key] for key in
                 ("exchanges", "link_additions", "link_removals", "pseudonyms_created")}
        engine_bytes = self.exact["engine_bytes"]
        round_totals = [
            sum(phases) for phases in zip(
                tracer.per_op("churn.step"),
                tracer.per_op("core.batch.begin_round"),
                tracer.per_op("core.batch.build_sets"),
                tracer.per_op("core.batch.absorb"),
            )
        ]
        return {
            "core.batch.build_s": tracer.median("core.batch.build", "setup"),
            "core.batch.warmup_s": tracer.median("core.batch.warmup", "setup"),
            "churn.step_s": tracer.median("churn.step"),
            "core.batch.begin_round_s": tracer.median("core.batch.begin_round"),
            "core.batch.build_sets_s": tracer.median("core.batch.build_sets"),
            "core.batch.absorb_s": tracer.median("core.batch.absorb"),
            "core.batch.round_s_tail": max(round_totals, default=0.0),
            "core.batch.exchanges": delta["exchanges"],
            "core.batch.link_additions": delta["link_additions"],
            "core.batch.link_removals": delta["link_removals"],
            "core.batch.pseudonyms_created": delta["pseudonyms_created"],
            "core.batch.exchange_success_ratio": (
                delta["exchanges"] / self.online_node_rounds
                if self.online_node_rounds else 0.0
            ),
            "core.batch.engine_bytes": engine_bytes,
            "core.batch.bytes_per_node": engine_bytes / self.config.num_nodes,
            "core.batch.snapshot_s": tracer.median("core.batch.snapshot"),
            "graphs.analysis_s": tracer.median("graphs.analysis"),
            "core.batch.digest_s": tracer.median("core.batch.digest"),
        }


class BroadcastWaves(Workload):
    name = "broadcast_waves"
    work_unit = "deliveries"
    checked_unit = "broadcast"
    per_wave = 4
    fanout = 4
    ttl = 16

    def __init__(self, seed, seconds, tracer, tiny):
        super().__init__(seed, seconds, tracer, tiny)
        self.config = batch_config(seed, tiny)
        self.ops = self.scaled(4, seconds, 2)
        self.overlay: Optional[BatchOverlay] = None
        self.keys_rng = None
        self.per_broadcast: List[Tuple[int, int]] = []
        self.coverages: List[float] = []
        self.frontier_rounds = 0
        self.died_out = 0
        self.channels = 0
        self.engine_bytes = 0

    def setup(self) -> None:
        self.overlay = None  # free the last repeat's before building anew
        self.overlay = build_warm_overlay(self.config, self.tracer)
        self.keys_rng = RandomStreams(self.seed).substream("perfbench", "broadcast-keys")

    def _origins(self, wave: int) -> Tuple[List[int], int]:
        online_rows = self.overlay.churn.online_rows()
        stride = max(1, len(online_rows) // self.per_wave)
        origins = [
            int(online_rows[(wave + i * stride) % len(online_rows)])
            for i in range(self.per_wave)
        ]
        return origins, len(online_rows)

    def _engine(self, snapshot: ChannelSnapshot) -> BatchBroadcastEngine:
        return BatchBroadcastEngine(
            snapshot, fanout=self.fanout, ttl=self.ttl, rng=self.keys_rng,
            online=self.overlay.churn.online,
        )

    def _read_ledger(self, engine: BatchBroadcastEngine) -> List[Tuple[int, int, float, float]]:
        num_nodes = self.config.num_nodes
        return [
            (view.deliveries(), view.forwards, view.coverage(num_nodes),
             view.latency_percentile(90.0))
            for view in engine.ledger.records()
        ]

    def op(self, wave: int):
        overlay = self.overlay
        overlay.run(1)
        snapshot = ChannelSnapshot.from_batch_overlay(overlay)
        engine = self._engine(snapshot)
        origins, online = self._origins(wave)
        engine.start(origins)
        engine.run()
        return self._read_ledger(engine), online, engine

    def op_traced(self, wave: int):
        span = self.tracer.span
        overlay = self.overlay
        with span("core.batch.round"):
            overlay.run(1)
        with span("dissemination.snapshot"):
            snapshot = ChannelSnapshot.from_batch_overlay(overlay)
        with span("dissemination.start"):
            engine = self._engine(snapshot)
            origins, online = self._origins(wave)
            engine.start(origins)
        while engine.frontier_size:
            with span("dissemination.frontier_round"):
                engine.step()
        with span("dissemination.ledger_read"):
            rows = self._read_ledger(engine)
        return rows, online, engine

    def check(self, wave: int, out) -> Tuple[int, int]:
        rows, online, engine = out
        num_nodes = self.config.num_nodes
        failed = 0
        for deliveries, forwards, coverage, _p90 in rows:
            self.work += deliveries
            self.per_broadcast.append((deliveries, forwards))
            self.coverages.append(coverage)
            # A ledger row that cannot be true: nobody reached, more
            # nodes reached than were online, a delivery nobody sent.
            failed += not (
                1 <= deliveries <= online
                and forwards >= deliveries - 1
                and coverage == deliveries / num_nodes
            )
        # With fanout 4 and 40 % of the targets offline, about one
        # epidemic in twenty dies in its first hops: that is the
        # protocol, not a fault, and is reported as a count.  A wave in
        # which no broadcast reaches half the online nodes is a fault.
        reached = [deliveries >= online / 2 for deliveries, *_ in rows]
        self.died_out += reached.count(False)
        if not any(reached):
            failed = len(rows)
        self.frontier_rounds += engine.rounds
        self.channels = engine.snapshot.channel_count
        self.engine_bytes = engine.memory_bytes()
        return len(rows), failed

    def finish(self) -> bool:
        self.exact["per_broadcast"] = self.per_broadcast
        self.exact["dissemination.channels"] = self.channels
        self.exact["dissemination.engine_bytes"] = self.engine_bytes
        self.exact["state_digest"] = self.overlay.state_digest()
        self.notes["coverage_median"] = _median(self.coverages)
        self.notes["died_out_broadcasts"] = self.died_out
        return True

    def layers(self) -> Dict[str, float]:
        tracer = self.tracer
        deliveries = sum(d for d, _ in self.per_broadcast)
        forwards = sum(f for _, f in self.per_broadcast)
        frontier = tracer.total("dissemination.frontier_round")
        calls = tracer.calls("dissemination.frontier_round")
        return {
            "core.batch.build_s": tracer.median("core.batch.build", "setup"),
            "core.batch.warmup_s": tracer.median("core.batch.warmup", "setup"),
            "core.batch.round_s": tracer.median("core.batch.round"),
            "dissemination.snapshot_s": tracer.median("dissemination.snapshot"),
            "dissemination.channels": self.channels,
            "dissemination.start_s": tracer.median("dissemination.start"),
            "dissemination.frontier_round_s": frontier / calls if calls else 0.0,
            "dissemination.frontier_rounds": self.frontier_rounds,
            "dissemination.deliveries": deliveries,
            "dissemination.forwards": forwards,
            "dissemination.useful_forward_ratio": deliveries / forwards if forwards else 0.0,
            "dissemination.coverage_mean": float(np.mean(self.coverages)),
            "dissemination.ledger_read_s": tracer.median("dissemination.ledger_read"),
            "dissemination.engine_bytes": self.engine_bytes,
        }


def _children_cpu_s() -> float:
    """User + system CPU seconds of this process's live children.

    ``os.times()`` only counts children that were waited for; the shard
    workers are alive while we measure, so read their ``/proc`` entries.
    """
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


class ShardedRounds(Workload):
    name = "sharded_rounds"
    work_unit = "node-rounds on the sharded side"
    checked_unit = "serial+sharded round pair"
    num_shards = 2
    workers = 2

    def __init__(self, seed, seconds, tracer, tiny):
        super().__init__(seed, seconds, tracer, tiny)
        self.config = batch_config(seed, tiny)
        self.ops = self.scaled(6, seconds, 2)
        self.serial: Optional[BatchOverlay] = None
        self.sharded: Optional[ShardedOverlay] = None
        self.serial_s: List[float] = []
        self.sharded_s: List[float] = []
        self.cpu = {"serial": 0.0, "sharded_parent": 0.0, "sharded_children": 0.0}
        self.worker_peak_rss_mb = 0.0

    def setup(self) -> None:
        span = self.tracer.span
        self.serial = build_warm_overlay(self.config, self.tracer, self.num_shards)
        with span("parallel.build"):
            self.sharded = ShardedOverlay.build(
                self.config, extra_edges_per_node=4,
                options=ShardOptions(num_shards=self.num_shards, workers=self.workers),
            )
        with span("parallel.warmup"):
            self.sharded.run(WARM_ROUNDS)

    def teardown(self) -> None:
        self.serial = None
        if self.sharded is not None:
            with self.tracer.span("parallel.close"):
                self.sharded.close()
            self.sharded = None
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            self.worker_peak_rss_mb = peak_kb / 1024.0

    def _serial_round(self) -> None:
        started = _clock()
        self.serial.step()
        self.serial_s.append(_clock() - started)

    def _sharded_round(self) -> None:
        started = _clock()
        self.sharded.step()
        self.sharded_s.append(_clock() - started)

    @staticmethod
    def _pair(index: int, serial, sharded) -> None:
        # Alternate which side goes first so machine drift cancels.
        first, second = (serial, sharded) if index % 2 == 0 else (sharded, serial)
        first()
        second()

    def op(self, index: int) -> None:
        self._pair(index, self._serial_round, self._sharded_round)

    def _traced_serial(self) -> None:
        cpu = time.process_time()
        with self.tracer.span("core.batch.serial_round"):
            self._serial_round()
        self.cpu["serial"] += time.process_time() - cpu

    def _traced_sharded(self) -> None:
        cpu = time.process_time()
        children = _children_cpu_s()
        with self.tracer.span("parallel.round"):
            self._sharded_round()
        self.cpu["sharded_children"] += _children_cpu_s() - children
        self.cpu["sharded_parent"] += time.process_time() - cpu

    def op_traced(self, index: int) -> None:
        self._pair(index, self._traced_serial, self._traced_sharded)

    def check(self, index: int, out) -> Tuple[int, int]:
        self.work += self.config.num_nodes
        alive = len(multiprocessing.active_children()) == self.workers
        return 1, 0 if alive else 1

    def finish(self) -> bool:
        span = self.tracer.span
        with span("core.batch.digest"):
            serial_digest = self.serial.state_digest()
        with span("parallel.digest"):
            sharded_digest = self.sharded.state_digest()
        serial_stats = self.serial.stats()
        sharded_stats = self.sharded.stats()
        self.exact["state_digest"] = serial_digest
        self.exact["stats"] = serial_stats
        self.notes["serial_round_s_p50"] = _median(self.serial_s)
        self.notes["sharded_round_s_p50"] = _median(self.sharded_s)
        self.notes["shard_speedup"] = self.speedup()
        return serial_digest == sharded_digest and serial_stats == sharded_stats

    def speedup(self) -> float:
        sharded = _median(self.sharded_s)
        return _median(self.serial_s) / sharded if sharded else 0.0

    def layers(self) -> Dict[str, float]:
        tracer = self.tracer
        speedup = self.speedup()
        sharded_wall = sum(self.sharded_s)
        sharded_cpu = self.cpu["sharded_parent"] + self.cpu["sharded_children"]
        return {
            "core.batch.build_s": tracer.median("core.batch.build", "setup"),
            "core.batch.warmup_s": tracer.median("core.batch.warmup", "setup"),
            "parallel.build_s": tracer.median("parallel.build", "setup"),
            "parallel.round_s": tracer.median("parallel.round"),
            "core.batch.serial_round_s": tracer.median("core.batch.serial_round"),
            "parallel.shard_speedup": speedup,
            "parallel.efficiency": speedup / self.workers,
            "parallel.cpu_s": sharded_cpu,
            "parallel.cpu_inflation_ratio": (
                sharded_cpu / self.cpu["serial"] if self.cpu["serial"] else 0.0
            ),
            "parallel.busy_ratio": (
                self.cpu["sharded_children"] / (self.workers * sharded_wall)
                if sharded_wall else 0.0
            ),
            "core.batch.digest_s": tracer.total("core.batch.digest"),
            "parallel.digest_s": tracer.total("parallel.digest"),
            "parallel.close_s": tracer.median("parallel.close", "teardown"),
            "parallel.worker_peak_rss_mb": self.worker_peak_rss_mb,
        }


# ----------------------------------------------------------------------
# mesh_periods — the live-node path on the loopback fabric
# ----------------------------------------------------------------------


class RecordingTransport(Transport):
    """Wraps a transport: times sends and receive handlers, keeps frames."""

    __slots__ = ("_inner", "_tracer", "_frames", "_depth")

    def __init__(self, inner: Transport, tracer: Tracer, frames: List[bytes],
                 depth: List[int]) -> None:
        super().__init__()
        self._inner = inner
        self._tracer = tracer
        self._frames = frames
        #: Shared by the whole mesh: non-zero while a handler runs.
        self._depth = depth

    @property
    def local_address(self):
        return self._inner.local_address

    def set_receiver(self, receiver) -> None:
        tracer = self._tracer
        frames = self._frames
        depth = self._depth

        def timed_receiver(data: bytes, source) -> None:
            frames.append(data)
            depth[0] += 1
            started = _clock()
            try:
                receiver(data, source)
            finally:
                elapsed = _clock() - started
                depth[0] -= 1
            tracer.coalesce("net.endpoint.handle", elapsed)

        self._inner.set_receiver(timed_receiver)

    def send(self, dest, data: bytes) -> None:
        started = _clock()
        self._inner.send(dest, data)
        self._tracer.coalesce(
            "net.transport.send", _clock() - started,
            under="net.endpoint.handle" if self._depth[0] else None,
        )

    def close(self) -> None:
        self._inner.close()


def build_mesh(spec: MeshSpec, tracer: Optional[Tracer] = None,
               frames: Optional[List[bytes]] = None):
    """Wire the mesh ``run_loopback_mesh`` wires, from public parts."""
    scheduler = Scheduler(Simulator())
    streams = RandomStreams(spec.seed)
    network = LoopbackNetwork(
        scheduler, streams.substream("net", "fabric"), faults=spec.faults
    )
    transports = [network.transport() for _ in range(spec.num_nodes)]
    if tracer is not None:
        depth = [0]
        transports = [RecordingTransport(t, tracer, frames, depth) for t in transports]
    seed_address = transports[0].local_address
    mesh = MeshLinkLayer()
    endpoints = []
    for node_id in range(spec.num_nodes):
        endpoint = NetEndpoint(
            node_id=node_id,
            clock=scheduler,
            transport=transports[node_id],
            rng=streams.substream("net", "endpoint", node_id),
            bootstrap=() if node_id == 0 else (seed_address,),
            heartbeat_interval=spec.heartbeat_interval,
            suspect_after=spec.suspect_after,
            dead_after=spec.dead_after,
        )
        mesh.add(endpoint)
        endpoints.append(endpoint)
    overlay = Overlay(
        ring_trust_graph(spec.num_nodes, spec.lattice_degree),
        mesh_system_config(spec), scheduler, mesh, streams,
    )
    collector = MetricsCollector(
        overlay, interval=spec.sample_interval,
        path_length_every=spec.path_length_every,
        rng=overlay.substream("mesh-collector"),
    )
    for endpoint in endpoints:
        endpoint.start()
    return scheduler, overlay, collector, endpoints


class MeshPeriods(Workload):
    name = "mesh_periods"
    work_unit = "node-periods (loopback fabric, virtual time, no real link)"
    checked_unit = "mesh run"
    setup_repeats = 25
    drop_counters = ("codec_rejects", "pending_overflow_drops", "unknown_endpoint_drops")

    def __init__(self, seed, seconds, tracer, tiny):
        super().__init__(seed, seconds, tracer, tiny)
        self.ops = self.scaled(3, seconds, 1)
        nodes, duration = (16, 12.0) if tiny else (64, 30.0)
        self.specs = [
            MeshSpec(num_nodes=nodes, duration=duration, seed=seed * 1000 + run)
            for run in range(self.ops)
        ]
        self.frames: List[bytes] = []
        self.counters: Dict[str, int] = {}
        self.unanswered = 0

    def setup(self) -> None:
        # run_loopback_mesh wires its own mesh inside every op; this is
        # the same wiring, measured on its own.
        with self.tracer.span("net.mesh_build"):
            build_mesh(self.specs[0])

    def op(self, index: int) -> Dict[str, Any]:
        report = run_loopback_mesh(self.specs[index])
        return {
            "counters": report.counters,
            "all_bootstrapped": report.all_bootstrapped,
            "fraction_disconnected": report.fraction_disconnected,
            "mean_degree": report.mean_degree,
        }

    def op_traced(self, index: int) -> Dict[str, Any]:
        span = self.tracer.span
        spec = self.specs[index]
        with span("net.mesh_build"):
            scheduler, overlay, collector, endpoints = build_mesh(
                spec, self.tracer, self.frames
            )
        with span("net.run"):
            overlay.start()
            collector.start()
            scheduler.run_until(spec.duration)
        with span("net.report"):
            degrees = overlay.online_out_degrees()
            counters: Dict[str, int] = {}
            for endpoint in endpoints:
                for key, value in endpoint.counters.items():
                    counters[key] = counters.get(key, 0) + value
            out = {
                "counters": counters,
                "all_bootstrapped": all(e.bootstrapped for e in endpoints),
                "fraction_disconnected": float(collector.disconnected.values[-1]),
                "mean_degree": float(degrees.mean()),
            }
        with span("net.shutdown"):
            for node in overlay.nodes:
                node.go_offline()
            for endpoint in endpoints:
                endpoint.shutdown()
            scheduler.run_until(spec.duration + 1.0)
        return out

    def check(self, index: int, out) -> Tuple[int, int]:
        spec = self.specs[index]
        self.work += int(spec.num_nodes * spec.duration)
        counters = out["counters"]
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.unanswered += counters["shuffle_offers_in"] - counters["shuffle_replies_in"]
        self.exact[f"run{index}"] = {
            "counters": counters, "mean_degree": out["mean_degree"],
        }
        # Drops are counted, not failed: a payload for a pseudonym its
        # owner has retired is dropped by design.  A codec reject on a
        # fabric that corrupts nothing is the codec disagreeing with
        # itself.
        ok = out["all_bootstrapped"] and out["fraction_disconnected"] == 0
        ok = ok and counters["codec_rejects"] == 0
        return 1, 0 if ok else 1

    def finish(self) -> bool:
        self.notes["unanswered_offers"] = self.unanswered
        self.notes["counters"] = self.counters
        return True

    def layers(self) -> Dict[str, float]:
        tracer = self.tracer
        frames = self.frames
        with tracer.span("replay"):
            with tracer.span("net.codec.decode"):
                messages = [decode_frame(frame) for frame in frames]
            with tracer.span("net.codec.encode"):
                for message in messages:
                    if not isinstance(message, CodecError):
                        encode_frame(message)
        shuffles = sum(isinstance(m, (ShuffleOffer, ShuffleReply)) for m in messages)
        wire_bytes = sum(len(frame) for frame in frames)
        decode = tracer.total("net.codec.decode")
        encode = tracer.total("net.codec.encode")
        handle_self = tracer.layer_table()["net.endpoint.handle"]["self_s"]
        counters = self.counters
        self.exact["net.frames"] = len(frames)
        self.exact["net.bytes"] = wire_bytes
        return {
            "net.mesh_build_s": tracer.median("net.mesh_build"),
            "net.frames": len(frames),
            "net.bytes": wire_bytes,
            "net.codec.bytes_per_frame": wire_bytes / len(frames),
            "net.codec.decode_s": decode,
            "net.codec.encode_s": encode,
            "net.codec.frame_us": 1e6 * (decode + encode) / len(frames),
            "net.transport.send_s": tracer.total("net.transport.send"),
            "net.endpoint.handle_s": handle_self - decode,
            "net.liveness_frame_share": 1.0 - shuffles / len(frames),
            "net.reply_ratio": counters["shuffle_replies_in"] / counters["shuffle_offers_in"],
            "net.drops": sum(counters[key] for key in self.drop_counters)
            + counters["unknown_peer_drops"] + counters["offline_drops"],
        }


# ----------------------------------------------------------------------
# mixnet_messages — the anonymity-service path
# ----------------------------------------------------------------------


class MixnetMessages(Workload):
    name = "mixnet_messages"
    work_unit = "messages"
    checked_unit = "message"
    setup_repeats = 25
    num_nodes = 60
    num_endpoints = 12
    num_relays = 20
    #: Simulator events per batch; each sends one slice of the batch.
    slices = 50

    def __init__(self, seed, seconds, tracer, tiny):
        super().__init__(seed, seconds, tracer, tiny)
        self.ops = self.scaled(10, seconds, 2)
        self.batch = 2_000 if tiny else 25_000
        self.delivered = [0]
        self.delivered_seen = 0
        self.records_seen = 0

    def setup(self) -> None:
        total = self.ops * self.batch
        data_rng = RandomStreams(self.seed).substream("perfbench", "mixnet-traffic")
        # Each sender talks to 4 repeat trust partners and 2 repeat
        # pseudonym links, as the overlay does; that is what gives the
        # circuit cache its hit rate.
        self.senders = data_rng.integers(0, self.num_nodes, size=total).tolist()
        self.dest_offsets = data_rng.integers(1, 5, size=total).tolist()
        self.endpoint_choice = data_rng.integers(0, 2, size=total).tolist()
        owners = data_rng.integers(0, self.num_nodes, size=self.num_endpoints).tolist()
        self.sim = Simulator()
        self.log = TrafficLog(enabled=True)
        self.delivered = delivered = [0]

        def inbox(payload: Any) -> None:
            delivered[0] += 1

        with self.tracer.span("privlink.mixnet.build"):
            self.layer = make_mixnet_link_layer(
                self.sim,
                RandomStreams(self.seed).substream("perfbench", "mixnet-net"),
                num_relays=self.num_relays,
                circuit_length=3,
                hop_latency=0.0,
                traffic=self.log,
            )
            for node_id in range(self.num_nodes):
                self.layer.register_node(node_id, inbox, lambda: True)
            self.addresses = [self.layer.create_endpoint(owner) for owner in owners]

    def _send_slice(self, lo: int, hi: int) -> None:
        senders = self.senders
        num_nodes = self.num_nodes
        send_to_node = self.layer.send_to_node
        send_to_endpoint = self.layer.send_to_endpoint
        for m in range(lo, hi):
            sender = senders[m]
            # The payload carries the message index: no two onions are
            # equal, so the relays' replay defence never drops one.
            if m % 2 == 0:
                dest = (sender + self.dest_offsets[m]) % num_nodes
                send_to_node(sender, dest, ("m", m))
            else:
                address = self.addresses[
                    (sender + self.endpoint_choice[m]) % self.num_endpoints
                ]
                send_to_endpoint(sender, address, ("m", m))

    def _write(self, index: int) -> None:
        base = index * self.batch
        width = self.batch // self.slices
        for piece in range(self.slices):
            lo = base + piece * width
            hi = base + self.batch if piece == self.slices - 1 else lo + width
            self.sim.post(index + piece / self.slices, self._send_slice, lo, hi)
        self.sim.run_until(float(index + 1))

    def op(self, index: int):
        self._write(index)
        log = self.log
        channels = log.channels()
        window = log.window(float(index), float(index + 1))
        endpoints = log.unique_endpoints()
        return self.delivered[0], len(log), channels, len(window), endpoints

    def op_traced(self, index: int):
        span = self.tracer.span
        log = self.log
        with span("privlink.mixnet.send"):
            self._write(index)
        with span("privlink.traffic.channels"):
            channels = log.channels()
        with span("privlink.traffic.window"):
            window = log.window(float(index), float(index + 1))
        with span("privlink.traffic.unique_endpoints"):
            endpoints = log.unique_endpoints()
        return self.delivered[0], len(log), channels, len(window), endpoints

    def check(self, index: int, out) -> Tuple[int, int]:
        delivered, records, channels, in_window, endpoints = out
        sent = (index + 1) * self.batch
        self.work += self.batch
        # The driver's own tally of who sent how much, against the log's.
        tally = np.bincount(self.senders[:sent], minlength=self.num_nodes)
        logged = np.zeros(self.num_nodes, dtype=np.int64)
        names = set()
        for (src, dst), count in channels.items():
            names.update((src, dst))
            if src.startswith("node:"):
                logged[int(src[5:])] += count
        agree = (
            np.array_equal(tally, logged)
            and sum(channels.values()) == records
            and in_window == records - self.records_seen
            and set(endpoints) == names
        )
        lost = self.batch - (delivered - self.delivered_seen)
        self.records_seen = records
        self.delivered_seen = delivered
        return self.batch, lost if agree else self.batch

    def finish(self) -> bool:
        network = self.layer.network
        self.exact["privlink.traffic.records"] = len(self.log)
        self.exact["privlink.mixnet.replays_dropped"] = network.total_replays_dropped()
        self.exact["circuit_cache"] = [network.circuit_cache_hits, network.circuit_cache_misses]
        self.exact["channels"] = sorted(
            (src, dst, count) for (src, dst), count in self.log.channels().items()
        )[:64]
        return True

    def layers(self) -> Dict[str, float]:
        tracer = self.tracer
        network = self.layer.network
        messages = self.ops * self.batch
        lookups = network.circuit_cache_hits + network.circuit_cache_misses
        return {
            "privlink.mixnet.send_s": tracer.median("privlink.mixnet.send"),
            "privlink.mixnet.msg_us": 1e6 * tracer.total("privlink.mixnet.send") / messages,
            "privlink.mixnet.delivered_ratio": self.delivered[0] / messages,
            "privlink.mixnet.circuit_cache_hit_ratio": (
                network.circuit_cache_hits / lookups if lookups else 0.0
            ),
            "privlink.mixnet.replays_dropped": network.total_replays_dropped(),
            "privlink.traffic.records": len(self.log),
            "privlink.traffic.bytes_per_record": self.log.memory_bytes() / len(self.log),
            "privlink.traffic.query_s": (
                tracer.median("privlink.traffic.channels")
                + tracer.median("privlink.traffic.window")
                + tracer.median("privlink.traffic.unique_endpoints")
            ),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (FigureSweep, BatchChurn, BroadcastWaves, ShardedRounds,
                MeshPeriods, MixnetMessages)
}
