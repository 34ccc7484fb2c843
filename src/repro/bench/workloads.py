"""Seeded microbenchmark workloads for the ``repro bench`` harness.

Each workload is a :class:`Workload`: a named, seeded recipe whose
:meth:`~Workload.prepare` builds all inputs (untimed) and returns a
zero-argument callable that executes one timed iteration and returns a
dict of *deterministic* facts about what it did (operation counts,
digests of results).  The harness times the callable and merges the
facts into the JSON report, so two runs with the same seed must return
identical dicts — that property is pinned by a regression test.

The suite covers the hot paths the ROADMAP cares about: raw event-loop
throughput under churn-heavy cancel/reschedule traffic, a full shuffle
round, the Brahms sampler's batch fold, churn session generation, and a
small availability sweep exercising everything end to end.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..churn import generate_trace, homogeneous_specs, stationary_online_mask
from ..config import SystemConfig
from ..core import ArenaSlots, BatchOverlay, NodeArena, Pseudonym
from ..errors import ExperimentError, ParallelError
from ..experiments import (
    SMOKE,
    availability_sweep,
    grid_sweep,
    make_config,
    make_trust_graph,
)
from ..experiments.runner import run_overlay_experiment
from ..parallel import (
    OverlayPointExperiment,
    ShardOptions,
    ShardedOverlay,
    outcome_digest,
    parallel_grid_sweep,
)
from ..privlink import Address, TrafficLog, make_mixnet_link_layer
from ..rng import RandomStreams
from ..sim import Simulator

__all__ = ["Workload", "SUITE", "workload_names"]

#: Index mask for the precomputed random-delay tables; keeping the
#: tables power-of-two sized makes the per-event lookup a cheap AND.
_MASK = 8191


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named benchmark: seeded setup plus a timed iteration."""

    name: str
    description: str
    #: ``prepare(mode, seed) -> run`` where ``run()`` executes one timed
    #: iteration and returns deterministic workload facts including an
    #: ``"operations"`` count (the events/sec denominator).
    prepare: Callable[[str, int], Callable[[], Dict[str, Any]]]


def _digest(*parts: Any) -> str:
    """Stable short digest of deterministic workload outputs."""
    text = "\x1f".join(repr(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# event loop
# ----------------------------------------------------------------------


def _prepare_event_loop_churn(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """Scheduler-bound churn traffic: schedule, cancel, reschedule.

    Models the paper's churn runs at the event-queue level: hundreds of
    timers that constantly cancel and re-arm each other, leaving
    tombstones in the heap.  All randomness is precomputed so the timed
    region measures the simulator, not numpy.
    """
    num_timers, horizon = (300, 150.0) if mode == "quick" else (400, 400.0)
    rng = RandomStreams(seed).substream("bench", "event-loop")
    delays = [float(x) for x in rng.uniform(0.5, 1.5, size=_MASK + 1)]
    targets = [int(x) for x in rng.integers(0, num_timers, size=_MASK + 1)]

    def run() -> Dict[str, Any]:
        sim = Simulator()
        handles: List[Any] = [None] * num_timers
        state = [0]

        def tick(i: int) -> None:
            k = state[0]
            state[0] = k + 1
            j = targets[k & _MASK]
            h = handles[j]
            if j != i and h is not None and not h.cancelled:
                h.cancel()
                handles[j] = sim.schedule(sim.now + delays[(k + 7) & _MASK], tick, j)
            handles[i] = sim.schedule(sim.now + delays[k & _MASK], tick, i)

        for i in range(num_timers):
            handles[i] = sim.schedule(delays[i & _MASK] - 0.5, tick, i)
        sim.run_until(horizon)
        return {
            "operations": sim.events_processed,
            "events_processed": sim.events_processed,
            "final_pending": sim.pending,
            "final_queue_size": sim.queue_size,
            "timers": num_timers,
            "horizon": horizon,
        }

    return run


# ----------------------------------------------------------------------
# shuffle round
# ----------------------------------------------------------------------


def _prepare_shuffle_round(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """A no-churn overlay gossiping for a stretch of shuffling periods."""
    horizon = 10.0 if mode == "quick" else 30.0
    trust_graph = make_trust_graph(SMOKE, f=0.5, seed=seed)
    config = make_config(SMOKE, alpha=0.5, f=0.5, seed=seed)

    def run() -> Dict[str, Any]:
        from ..core import Overlay

        overlay = Overlay.build(trust_graph, config, with_churn=False)
        overlay.start()
        overlay.run_until(horizon)
        stats = overlay.stats()
        return {
            "operations": overlay.sim.events_processed,
            "events_processed": overlay.sim.events_processed,
            "messages_sent": stats.messages_sent,
            "link_replacements": stats.link_replacements,
            "pseudonyms_created": stats.pseudonyms_created,
            "nodes": config.num_nodes,
            "horizon": horizon,
        }

    return run


# ----------------------------------------------------------------------
# Brahms sampler step
# ----------------------------------------------------------------------


def _prepare_brahms_sampler(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """Fold many received batches into one node's sampler slots."""
    batches, batch_size, slots_size = (
        (300, 40, 50) if mode == "quick" else (1500, 40, 50)
    )
    data_rng = RandomStreams(seed).substream("bench", "sampler-data")
    values = data_rng.integers(0, 1 << 62, size=batches * batch_size)
    expiries = data_rng.uniform(10.0, 1000.0, size=batches * batch_size)
    all_batches: List[List[Pseudonym]] = []
    for b in range(batches):
        start = b * batch_size
        all_batches.append(
            [
                Pseudonym(
                    value=int(values[i]),
                    address=Address(int(values[i]) + 1),
                    expires_at=float(expiries[i]),
                )
                for i in range(start, start + batch_size)
            ]
        )

    def run() -> Dict[str, Any]:
        arena = NodeArena(node_chunk=1)
        arena.register_node(0, slots_size, 1)
        slots = ArenaSlots(
            arena, 0, slots_size, RandomStreams(seed).substream("bench", "refs")
        )
        changed = 0
        for batch in all_batches:
            changed += slots.offer_batch(batch)
        sample = slots.sample()
        return {
            "operations": batches * batch_size,
            "slots_changed": changed,
            "final_filled": slots.filled(),
            "sample_digest": _digest(sorted(p.value for p in sample)),
            "batches": batches,
            "batch_size": batch_size,
        }

    return run


# ----------------------------------------------------------------------
# churn session generation
# ----------------------------------------------------------------------


def _prepare_churn_sessions(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """Pre-generate availability traces for a large population."""
    num_nodes, horizon = (1500, 150.0) if mode == "quick" else (5000, 300.0)
    specs = homogeneous_specs(num_nodes, availability=0.4, mean_offline_time=30.0)

    def run() -> Dict[str, Any]:
        rng = RandomStreams(seed).substream("bench", "churn-trace")
        trace = generate_trace(specs, horizon, rng)
        transitions = len(trace)
        return {
            "operations": transitions,
            "transitions": transitions,
            "initial_online": sum(trace.initial_online),
            "trace_horizon": trace.horizon,
            "nodes": num_nodes,
        }

    return run


# ----------------------------------------------------------------------
# availability sweep (end to end)
# ----------------------------------------------------------------------


def _prepare_availability_sweep(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """A miniature Figure-3 sweep: the full stack at smoke scale."""
    alphas: Tuple[float, ...] = (0.5,) if mode == "quick" else (0.25, 0.5)

    def run() -> Dict[str, Any]:
        sweep = availability_sweep(SMOKE, f=0.5, seed=seed, alphas=alphas)
        facts = [
            (
                point.alpha,
                round(point.overlay_disconnected, 12),
                round(point.trust_disconnected, 12),
                round(point.random_disconnected, 12),
            )
            for point in sweep.points
        ]
        # operations: one sweep point is the unit of work.
        return {
            "operations": len(sweep.points),
            "points": len(sweep.points),
            "trust_edges": sweep.trust_edges,
            "sweep_digest": _digest(facts),
        }

    return run


# ----------------------------------------------------------------------
# parallel sweep (serial vs worker pool, digest-checked)
# ----------------------------------------------------------------------


def _prepare_parallel_sweep(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """The same grid swept serially and on the worker pool.

    The timed iteration runs ``grid_sweep`` (workers=1) and
    ``parallel_grid_sweep`` (one worker per core, at least two so the
    multiprocess path is exercised even on single-core CI) over the
    same grid and *raises* if their outcome digests differ — the bench
    suite doubles as a continuous serial/parallel equivalence check.
    Wall-clock scaling facts live under ``wall_``-prefixed keys, which
    the determinism strip removes (timings vary; digests must not).
    """
    if mode == "quick":
        axes: Dict[str, List[Any]] = {"availability": [0.3, 0.6]}
        horizon, window = 10.0, 5.0
    else:
        axes = {"availability": [0.3, 0.6], "lifetime_ratio": [3.0, 9.0]}
        horizon, window = 20.0, 10.0
    experiment = OverlayPointExperiment(
        scale_name="smoke", f=0.5, horizon=horizon, measure_window=window
    )
    workers = max(2, os.cpu_count() or 1)
    # Memoize the trust graph before the fork so workers inherit it.
    make_trust_graph(SMOKE, f=0.5, seed=seed)

    def run() -> Dict[str, Any]:
        base = make_config(SMOKE, alpha=0.5, f=0.5, seed=seed)
        started = time.perf_counter()
        serial = grid_sweep(base, axes, experiment)
        wall_serial = time.perf_counter() - started
        started = time.perf_counter()
        parallel = parallel_grid_sweep(base, axes, experiment, workers=workers)
        wall_parallel = time.perf_counter() - started
        serial_digest = outcome_digest([point.outcome for point in serial])
        parallel_digest = outcome_digest([point.outcome for point in parallel])
        if serial_digest != parallel_digest or serial != parallel:
            raise ParallelError(
                "parallel sweep diverged from serial: "
                f"{serial_digest} != {parallel_digest}"
            )
        speedup = wall_serial / wall_parallel if wall_parallel > 0 else 0.0
        return {
            # Every grid point ran twice (once per path).
            "operations": len(serial) + len(parallel),
            "points": len(serial),
            "workers": workers,
            "digest": serial_digest,
            "digests_match": True,
            "wall_serial_s": wall_serial,
            "wall_parallel_s": wall_parallel,
            "wall_speedup": speedup,
            "wall_efficiency": speedup / workers,
        }

    return run


# ----------------------------------------------------------------------
# metric sampling kernels (fast backend vs networkx reference)
# ----------------------------------------------------------------------


def _prepare_metrics_sample(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """One collector sample's metrics on a large churned snapshot.

    Prepares a 2k-node (4k in full mode) social graph restricted to a
    stationary online set, runs the networkx reference pipeline once
    (untimed relative to the harness; its wall clock is recorded under
    a ``wall_`` fact), then times the fast-backend pipeline: CSR
    snapshot assembly, one shared component labeling, disconnected
    fraction, sampled normalized path length, and degree histogram.
    Every fast value is checked against the reference — the bench
    doubles as a continuous exactness test — and ``wall_speedup``
    reports the per-sample ratio.
    """
    from ..churn import online_subgraph
    from ..graphs import (
        degree_histogram,
        fraction_disconnected,
        generate_social_graph,
        normalized_path_length,
    )
    from ..graphs.fastgraph import FlatSnapshot, SnapshotAnalysis

    num_nodes, iters = (2000, 3) if mode == "quick" else (4000, 5)
    path_sources = 64
    graph_rng = RandomStreams(seed).substream("bench", "metrics-graph")
    graph = generate_social_graph(num_nodes, rng=graph_rng)
    mask = stationary_online_mask(
        num_nodes, 0.6, RandomStreams(seed).substream("bench", "metrics-mask")
    )
    induced = online_subgraph(graph, mask)

    # Reference pass: the pre-fastgraph collector pipeline (the largest
    # component is recomputed inside each metric, as it used to be).
    started = time.perf_counter()
    ref_fraction = fraction_disconnected(induced)
    ref_path = normalized_path_length(
        induced,
        num_nodes,
        sample_sources=path_sources,
        rng=RandomStreams(seed).substream("bench", "metrics-sources"),
    )
    ref_histogram = degree_histogram(induced)
    wall_networkx = time.perf_counter() - started

    # Raw endpoint positions: what the overlay's incremental store hands
    # to snapshot assembly, so the timed region includes CSR building.
    base = FlatSnapshot.from_networkx(induced)
    node_ids = base.node_ids
    endpoint_a = base.edge_u.copy()
    endpoint_b = base.edge_v.copy()

    def run() -> Dict[str, Any]:
        started = time.perf_counter()
        for _ in range(iters):
            snapshot = FlatSnapshot.from_edge_positions(
                node_ids, endpoint_a, endpoint_b
            )
            analysis = SnapshotAnalysis(snapshot)
            fraction = analysis.fraction_disconnected()
            path = analysis.normalized_path_length(
                num_nodes,
                sample_sources=path_sources,
                rng=RandomStreams(seed).substream("bench", "metrics-sources"),
            )
            histogram = analysis.degree_histogram()
            if (
                fraction != ref_fraction
                or path != ref_path
                or histogram != ref_histogram
            ):
                raise ExperimentError(
                    "fast metrics diverged from networkx reference: "
                    f"({fraction}, {path}) != ({ref_fraction}, {ref_path})"
                )
        wall_fast = time.perf_counter() - started
        per_sample = wall_fast / iters
        return {
            "operations": iters,
            "samples": iters,
            "nodes": num_nodes,
            "online_nodes": induced.number_of_nodes(),
            "edges": induced.number_of_edges(),
            "path_sources": path_sources,
            "disconnected": round(ref_fraction, 12),
            "path_length": round(ref_path, 12),
            "histogram_digest": _digest(sorted(ref_histogram.items())),
            "values_match": True,
            "wall_networkx_s": wall_networkx,
            "wall_fast_s": per_sample,
            "wall_speedup": wall_networkx / per_sample if per_sample > 0 else 0.0,
        }

    return run


# ----------------------------------------------------------------------
# mixnet message path
# ----------------------------------------------------------------------


def _prepare_mixnet_message(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """End-to-end sends through the mixnet into a columnar traffic log.

    Cached circuits with seal-time digest stamping, compact
    epoch-bounded replay digests, inline zero-latency hops.  Senders
    message a handful of repeat destinations (gossip partners and held
    pseudonym links re-used across rounds, as the overlay does), which
    is what gives the circuit cache its hit rate.  ``hop_latency`` is 0
    so the per-hop latency draw is skipped and the measurement isolates
    the message path itself.  Raises unless every message is delivered.
    """
    num_messages = 12_000 if mode == "quick" else 24_000
    num_nodes = 60
    num_endpoints = 12
    num_relays = 20
    horizon = 100.0

    data_rng = RandomStreams(seed).substream("bench", "mixnet-traffic")
    senders = [int(x) for x in data_rng.integers(0, num_nodes, size=num_messages)]
    # Each sender gossips with 4 repeat trust partners and 2 repeat
    # pseudonym links, re-used across rounds as the overlay does.
    dest_offsets = [int(x) for x in data_rng.integers(1, 5, size=num_messages)]
    endpoint_choice = [
        int(x) for x in data_rng.integers(0, 2, size=num_messages)
    ]
    owners = [int(x) for x in data_rng.integers(0, num_nodes, size=num_endpoints)]
    send_times = [
        float(x) for x in data_rng.uniform(0.0, horizon * 0.9, size=num_messages)
    ]
    # Batch sends into one simulator event per sim-second: the event
    # loop's per-event dispatch is not what this benchmark measures —
    # the message path is.
    buckets: Dict[float, List[int]] = {}
    for i, send_time in enumerate(send_times):
        buckets.setdefault(float(int(send_time)), []).append(i)

    def run() -> Dict[str, Any]:
        log = TrafficLog()
        gc.collect()
        sim = Simulator()
        layer = make_mixnet_link_layer(
            sim,
            RandomStreams(seed).substream("bench", "mixnet-net"),
            num_relays=num_relays,
            circuit_length=3,
            hop_latency=0.0,
            traffic=log,
        )
        delivered = [0]

        def inbox(payload: Any) -> None:
            delivered[0] += 1

        for node_id in range(num_nodes):
            layer.register_node(node_id, inbox, lambda: True)
        addresses = [
            layer.create_endpoint(owners[k]) for k in range(num_endpoints)
        ]
        send_to_node = layer.send_to_node
        send_to_endpoint = layer.send_to_endpoint

        def send_bucket(indices: List[int]) -> None:
            for i in indices:
                if i % 2 == 0:
                    dest = (senders[i] + dest_offsets[i]) % num_nodes
                    send_to_node(senders[i], dest, ("m", i))
                else:
                    address = addresses[
                        (senders[i] + endpoint_choice[i]) % num_endpoints
                    ]
                    send_to_endpoint(senders[i], address, ("m", i))

        for bucket_time in sorted(buckets):
            sim.post_after(bucket_time, send_bucket, buckets[bucket_time])
        sim.run_until(horizon + 5.0)
        network = layer.network
        if delivered[0] != num_messages:
            raise ExperimentError(
                f"mixnet delivered {delivered[0]} of {num_messages} messages"
            )
        return {
            "operations": num_messages,
            "messages": num_messages,
            "delivered": delivered[0],
            "relays": num_relays,
            "traffic_records": len(log),
            "channels_digest": _digest(sorted(log.channels().items())),
            "circuit_cache_hits": network.circuit_cache_hits,
            "circuit_cache_misses": network.circuit_cache_misses,
            "replays_dropped": network.total_replays_dropped(),
            "replay_cache_entries": network.total_replay_cache_entries(),
            "replay_flushes": network.total_replay_flushes(),
        }

    return run


# ----------------------------------------------------------------------
# convergence run (single overlay under churn)
# ----------------------------------------------------------------------


def _prepare_overlay_churn(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """One overlay under live churn — the Figure 8 inner loop."""
    horizon = 25.0 if mode == "quick" else 60.0
    trust_graph = make_trust_graph(SMOKE, f=0.5, seed=seed)
    config = make_config(SMOKE, alpha=0.5, f=0.5, seed=seed)

    def run() -> Dict[str, Any]:
        result = run_overlay_experiment(
            trust_graph,
            config,
            horizon=horizon,
            measure_window=horizon / 2,
            collector_interval=1.0,
            path_length_every=0,
        )
        return {
            "operations": result.overlay.sim.events_processed,
            "events_processed": result.overlay.sim.events_processed,
            "disconnected": round(result.disconnected, 12),
            "online_fraction": round(result.online_fraction, 12),
            "full_edge_count": result.full_edge_count,
            "horizon": horizon,
        }

    return run


# ----------------------------------------------------------------------
# dissemination plane (batch frontier engine vs object-plane epidemic)
# ----------------------------------------------------------------------


def _prepare_heavy_broadcast(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """Epidemic broadcast: object-plane disseminator vs batch engine.

    One churned overlay is warmed up (untimed), its live bidirectional
    channels frozen into a :class:`ChannelSnapshot`, and the same
    broadcast traffic run twice.  The *object* phase drives
    :class:`EpidemicBroadcast` in counter-sampling mode — one simulator
    event and one ``app_handler`` call per message hop.  The *fast*
    phase — the speedup numerator — replays the identical origins
    through :class:`BatchBroadcastEngine`, which advances all
    broadcasts at once as vectorized frontier rounds over the shared
    snapshot.  Both phases draw their per-broadcast sampling keys from
    the same ``dissemination`` substream, so the run then *raises*
    unless every broadcast's delivery set, per-node delivery rounds,
    and forward count match exactly — the bench doubles as the
    continuous object↔batch exactness check.  Coverage and latency
    facts come from the satellite ``coverage()`` /
    ``latency_percentile()`` record helpers on both planes.
    """
    from ..core import Overlay
    from ..dissemination import (
        BatchBroadcastEngine,
        ChannelSnapshot,
        EpidemicBroadcast,
    )
    from ..privlink import make_ideal_link_layer

    if mode == "quick":
        scale, num_broadcasts, warmup = SMOKE, 40, 12.0
    else:
        from ..experiments import QUICK

        scale, num_broadcasts, warmup = QUICK, 150, 20.0
    fanout, ttl = 4, 8
    trust_graph = make_trust_graph(scale, f=0.5, seed=seed)
    config = make_config(scale, alpha=0.6, f=0.5, seed=seed)
    overlay = Overlay.build(
        trust_graph,
        config,
        with_churn=True,
        # Zero latency: a broadcast completes within one sim instant, so
        # hop rounds are exact and gossip timers never interleave.
        link_layer_factory=lambda sim, rng: make_ideal_link_layer(
            sim, rng, max_latency=0.0
        ),
    )
    overlay.start()
    overlay.run_until(warmup)
    snapshot = ChannelSnapshot.from_overlay(overlay)
    online = np.array([node.online for node in overlay.nodes], dtype=bool)
    online_ids = [node.node_id for node in overlay.nodes if node.online]
    origins = [
        online_ids[i % len(online_ids)] for i in range(num_broadcasts)
    ]

    def run() -> Dict[str, Any]:
        # Object phase: one event per hop through the live simulator.
        disseminator = EpidemicBroadcast(
            overlay, fanout=fanout, ttl=ttl, sampling="counter"
        )
        disseminator.install()
        sim = overlay.sim
        records = []
        gc.collect()
        started = time.process_time()
        for origin in origins:
            records.append(disseminator.broadcast(origin, payload=None))
            sim.run_until(sim.now)  # drain the instant broadcast
        wall_object = time.process_time() - started

        # Fast phase: the same origins, same key stream, one engine.
        engine = BatchBroadcastEngine(
            snapshot,
            fanout=fanout,
            ttl=ttl,
            rng=overlay.substream("dissemination"),
            online=online,
        )
        gc.collect()
        started = time.process_time()
        message_ids = engine.start(origins)
        engine.run()
        wall_batch = time.process_time() - started

        # Differential: every broadcast must match exactly.
        ledger = engine.ledger
        coverages = []
        p95_rounds = []
        for record, message_id in zip(records, message_ids):
            view = ledger.record(message_id)
            if (
                record.delivery_rounds != view.delivery_rounds
                or record.forwards != view.forwards
                or set(record.delivery_times) != set(view.delivery_rounds)
            ):
                raise ExperimentError(
                    "batch dissemination diverged from the object plane "
                    f"on broadcast {record.message_id}: "
                    f"{record.deliveries()}/{view.deliveries()} deliveries, "
                    f"{record.forwards}/{view.forwards} forwards"
                )
            object_coverage = record.coverage(config.num_nodes)
            batch_coverage = view.coverage(config.num_nodes)
            object_p95 = float(
                np.percentile(list(record.delivery_rounds.values()), 95.0)
            )
            batch_p95 = view.latency_percentile(95.0)
            if object_coverage != batch_coverage or object_p95 != batch_p95:
                raise ExperimentError(
                    "record-view reporting diverged from BroadcastRecord "
                    f"on broadcast {record.message_id}"
                )
            coverages.append(batch_coverage)
            p95_rounds.append(batch_p95)
        delivered = ledger.total_delivered()
        shape = [
            (view.deliveries(), view.forwards, view.max_latency())
            for view in ledger.records()
        ]
        return {
            # One operation = one (broadcast, node) delivery on the
            # timed (batch) side.
            "operations": delivered,
            "broadcasts": num_broadcasts,
            "nodes": config.num_nodes,
            "online_nodes": len(online_ids),
            "channels": snapshot.channel_count,
            "fanout": fanout,
            "ttl": ttl,
            "delivered": delivered,
            "forwards": ledger.total_forwards(),
            "mean_coverage": round(float(np.mean(coverages)), 12),
            "p95_rounds": round(float(np.mean(p95_rounds)), 12),
            "shape_digest": _digest(shape),
            "records_match": True,
            "wall_object_s": wall_object,
            "wall_batch_s": wall_batch,
            "wall_speedup": wall_object / wall_batch if wall_batch > 0 else 0.0,
        }

    return run


def _prepare_million_message_broadcast(
    mode: str, seed: int
) -> Callable[[], Dict[str, Any]]:
    """Sustained epidemic waves over a churning 10⁵-node batch overlay.

    The ROADMAP item-5 scale workload: build a
    :class:`~repro.core.BatchOverlay`, warm its link fabric, then
    alternate shuffle/churn rounds with broadcast waves — each wave
    freezes the current channels via
    :meth:`~repro.core.BatchOverlay.channel_edges`, seats a batch of
    concurrent broadcasts, and runs their frontiers dry under the live
    online mask.  Full mode must sustain at least 10⁶ delivered
    messages (the ISSUE acceptance floor — the run *raises* below it);
    quick mode is the same pipeline at a CI-sized floor and is gated by
    ``scale-smoke`` time and peak RSS alongside ``million_node_churn``.
    """
    from ..dissemination import BatchBroadcastEngine, ChannelSnapshot

    if mode == "quick":
        waves, per_wave, min_delivered = 2, 3, 100_000
    else:
        waves, per_wave, min_delivered = 6, 5, 1_000_000
    num_nodes, warm_rounds = 100_000, 3
    fanout, ttl = 4, 16
    config = SystemConfig(
        num_nodes=num_nodes,
        cache_size=16,
        shuffle_length=8,
        target_degree=12,
        min_pseudonym_links=8,
        availability=0.6,
        mean_offline_time=8.0,
        seed=seed,
    )

    def run() -> Dict[str, Any]:
        gc.collect()
        started = time.perf_counter()
        overlay = BatchOverlay.build(config, extra_edges_per_node=4)
        overlay.run(warm_rounds)
        wall_build = time.perf_counter() - started
        keys_rng = RandomStreams(seed).substream("bench", "broadcast-keys")
        delivered_total = 0
        forwards_total = 0
        per_broadcast: List[Tuple[int, int]] = []
        coverage_sum = 0.0
        engine_bytes = 0
        channels = 0
        started = time.perf_counter()
        for wave in range(waves):
            overlay.run(1)  # churn + shuffle between waves
            snapshot = ChannelSnapshot.from_batch_overlay(overlay)
            online = overlay.churn.online
            engine = BatchBroadcastEngine(
                snapshot,
                fanout=fanout,
                ttl=ttl,
                rng=keys_rng,
                online=online,
            )
            online_rows = overlay.churn.online_rows()
            stride = max(1, len(online_rows) // per_wave)
            origins = [
                int(online_rows[(wave + i * stride) % len(online_rows)])
                for i in range(per_wave)
            ]
            engine.start(origins)
            engine.run()
            ledger = engine.ledger
            delivered_total += ledger.total_delivered()
            forwards_total += ledger.total_forwards()
            for view in ledger.records():
                per_broadcast.append((view.deliveries(), view.forwards))
                coverage_sum += view.coverage(num_nodes)
            engine_bytes = engine.memory_bytes()
            channels = snapshot.channel_count
        wall_waves = time.perf_counter() - started
        if delivered_total < min_delivered:
            raise ExperimentError(
                f"broadcast waves delivered {delivered_total} messages, "
                f"below the {min_delivered} floor for {mode} mode"
            )
        broadcasts = waves * per_wave
        return {
            "operations": delivered_total,
            "nodes": num_nodes,
            "waves": waves,
            "broadcasts": broadcasts,
            "fanout": fanout,
            "ttl": ttl,
            "delivered": delivered_total,
            "forwards": forwards_total,
            "mean_coverage": round(coverage_sum / broadcasts, 12),
            "channels": channels,
            "engine_bytes": engine_bytes,
            "shape_digest": _digest(per_broadcast),
            "wall_build_s": wall_build,
            "wall_waves_s": wall_waves,
            "wall_wave_s": wall_waves / waves,
        }

    return run


# ----------------------------------------------------------------------
# million-node churned overlay (the scale-smoke gate)
# ----------------------------------------------------------------------


def _prepare_net_codec(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """Wire-codec throughput: encode + strict decode of live-mesh traffic.

    Builds a seeded message mix shaped like real mesh traffic — mostly
    shuffle offers/replies with full pseudonym entry sets, plus the
    bootstrap/liveness/pseudonym-service control frames — and times
    round-tripping it through :func:`encode_frame` / :func:`decode_frame`.
    A sprinkle of corrupt frames keeps the rejection path honest (and
    measured): strict decode must classify them without raising.
    """
    from ..net.codec import (
        CodecError,
        Goodbye,
        Heartbeat,
        Hello,
        HelloAck,
        Lookup,
        LookupReply,
        PeerInfo,
        Register,
        ShuffleOffer,
        ShuffleReply,
        WireEntry,
        decode_frame,
        encode_frame,
    )
    from ..net.codec import AppPayload as WireAppPayload

    num_messages = 2_000 if mode == "quick" else 20_000
    rng = RandomStreams(seed).substream("bench", "net-codec")

    def entries(count: int) -> Tuple[WireEntry, ...]:
        return tuple(
            WireEntry(
                value=int(rng.integers(0, 2**32, dtype=np.uint32)),
                token=int(rng.integers(1, 2**63)),
                ttl=float(rng.uniform(0.5, 20.0)),
                host="127.0.0.1",
                port=int(rng.integers(1024, 65536)),
            )
            for _ in range(count)
        )

    messages: List[Any] = []
    for index in range(num_messages):
        kind = index % 10
        if kind < 4:
            messages.append(
                ShuffleOffer(
                    entries=entries(8),
                    reply_node=int(rng.integers(0, 2**32, dtype=np.uint32)),
                )
            )
        elif kind < 7:
            messages.append(ShuffleReply(entries=entries(8)))
        elif kind == 7:
            messages.append(
                Heartbeat(
                    node_id=int(rng.integers(0, 2**32, dtype=np.uint32)),
                    seq=index,
                    reply_wanted=bool(index & 1),
                )
            )
        elif kind == 8:
            messages.append(
                HelloAck(
                    node_id=int(rng.integers(0, 2**32, dtype=np.uint32)),
                    peers=tuple(
                        PeerInfo(node_id=p, host="127.0.0.1", port=40000 + p)
                        for p in range(8)
                    ),
                )
            )
        else:
            messages.append(
                [
                    Hello(node_id=index, host="127.0.0.1", port=41000),
                    Register(
                        node_id=index,
                        token=int(rng.integers(1, 2**63)),
                        host="127.0.0.1",
                        port=41000,
                    ),
                    Lookup(token=int(rng.integers(1, 2**63))),
                    LookupReply(
                        token=int(rng.integers(1, 2**63)),
                        found=True,
                        host="127.0.0.1",
                        port=41001,
                    ),
                    WireAppPayload(kind="bench", body=b"x" * 64),
                    Goodbye(node_id=index),
                ][index % 6]
            )
    # Pre-corrupted frames for the rejection path: truncations and
    # byte flips of valid frames, plus pure noise.
    corrupt: List[bytes] = []
    for index in range(num_messages // 10):
        frame = bytearray(encode_frame(messages[index % len(messages)]))
        style = index % 3
        if style == 0:
            corrupt.append(bytes(frame[: max(1, len(frame) // 2)]))
        elif style == 1:
            flip = int(rng.integers(0, len(frame)))
            frame[flip] ^= 0xFF
            corrupt.append(bytes(frame))
        else:
            corrupt.append(bytes(rng.integers(0, 256, size=32, dtype=np.uint8)))

    def run() -> Dict[str, Any]:
        encoded: List[bytes] = [encode_frame(message) for message in messages]
        decoded_ok = 0
        for frame in encoded:
            if not isinstance(decode_frame(frame), CodecError):
                decoded_ok += 1
        rejected = 0
        for frame in corrupt:
            if isinstance(decode_frame(frame), CodecError):
                rejected += 1
        wire_bytes = sum(len(frame) for frame in encoded)
        return {
            # One operation = one encode or one decode attempt.
            "operations": len(encoded) * 2 + len(corrupt),
            "messages": len(encoded),
            "decoded_ok": decoded_ok,
            "corrupt_frames": len(corrupt),
            "corrupt_rejected": rejected,
            "wire_bytes": wire_bytes,
            "mean_frame_bytes": round(wire_bytes / len(encoded), 6),
            "frames_digest": _digest(tuple(encoded[:64]), wire_bytes),
        }

    return run


def _prepare_million_node_churn(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """A churned overlay at scale through the round-based batch engine.

    Builds a ring-lattice trust graph, seats the population under
    discretized exponential churn, runs full shuffle rounds (mint,
    expiry, partner selection, shuffle-set exchange, link refresh) with
    :class:`BatchOverlay`, then assembles the online snapshot and
    computes the disconnection metric.  Quick mode runs 10^5 nodes (the
    CI ``scale-smoke`` gate); full mode is the million-node run from
    the ISSUE acceptance criteria.  Peak RSS is the fact that matters;
    the per-workload ``rss_delta_kb`` the harness records keeps the
    reading attributable to this workload wherever it runs in the
    suite, so its position is hygiene, not a requirement.
    """
    num_nodes, rounds = (100_000, 5) if mode == "quick" else (1_000_000, 6)
    config = SystemConfig(
        num_nodes=num_nodes,
        cache_size=16,
        shuffle_length=8,
        target_degree=12,
        min_pseudonym_links=8,
        availability=0.6,
        mean_offline_time=8.0,
        seed=seed,
    )

    def run() -> Dict[str, Any]:
        gc.collect()
        started = time.perf_counter()
        overlay = BatchOverlay.build(config, extra_edges_per_node=4)
        wall_build = time.perf_counter() - started
        started = time.perf_counter()
        overlay.run(rounds)
        wall_rounds = time.perf_counter() - started
        started = time.perf_counter()
        analysis = overlay.analysis()
        fraction = analysis.fraction_disconnected()
        wall_metrics = time.perf_counter() - started
        stats = overlay.stats()
        return {
            "operations": stats["exchanges"],
            "nodes": num_nodes,
            "rounds": rounds,
            "online_nodes": stats["online_nodes"],
            "exchanges": stats["exchanges"],
            "pseudonyms_created": stats["pseudonyms_created"],
            "link_additions": stats["link_additions"],
            "link_removals": stats["link_removals"],
            "fraction_disconnected": round(fraction, 12),
            "mean_degree": round(overlay.mean_out_degree(), 12),
            "engine_bytes": overlay.memory_bytes(),
            "state_digest": overlay.state_digest()[:16],
            "wall_build_s": wall_build,
            "wall_rounds_s": wall_rounds,
            "wall_round_s": wall_rounds / rounds,
            "wall_metrics_s": wall_metrics,
        }

    return run


# ----------------------------------------------------------------------
# sharded churn (one run spread across worker processes, digest-checked)
# ----------------------------------------------------------------------


def _prepare_sharded_churn(mode: str, seed: int) -> Callable[[], Dict[str, Any]]:
    """The same churned overlay run serially and across shard workers.

    The timed iteration runs the scale workload's configuration twice
    over an identical 4-shard grid: once with the serial
    :class:`BatchOverlay` and once with :class:`ShardedOverlay` forking
    four worker processes, then *raises* if their state digests or
    counters differ — the bench suite doubles as a continuous
    serial/sharded equivalence check at scale.  Quick mode runs 10^5
    nodes (the CI ``shard-smoke`` gate); full mode is the million-node
    run from the ISSUE acceptance criteria.  Wall-clock scaling facts
    live under ``wall_``-prefixed keys, which the determinism strip
    removes — a low speedup (inevitable on few-core CI runners) is
    reported, never raised on; only digest divergence fails the run.
    """
    num_nodes, rounds = (100_000, 4) if mode == "quick" else (1_000_000, 6)
    num_shards = 4
    workers = 4
    config = SystemConfig(
        num_nodes=num_nodes,
        cache_size=16,
        shuffle_length=8,
        target_degree=12,
        min_pseudonym_links=8,
        availability=0.6,
        mean_offline_time=8.0,
        seed=seed,
    )
    options = ShardOptions(num_shards=num_shards, workers=workers)

    def run() -> Dict[str, Any]:
        gc.collect()
        started = time.perf_counter()
        serial = BatchOverlay.build(
            config, extra_edges_per_node=4, num_shards=num_shards
        )
        serial.run(rounds)
        serial_digest = serial.state_digest()
        serial_stats = serial.stats()
        wall_serial = time.perf_counter() - started
        del serial
        gc.collect()
        started = time.perf_counter()
        with ShardedOverlay.build(
            config, extra_edges_per_node=4, options=options
        ) as sharded:
            sharded.run(rounds)
            sharded_digest = sharded.state_digest()
            sharded_stats = sharded.stats()
        wall_sharded = time.perf_counter() - started
        if sharded_digest != serial_digest or sharded_stats != serial_stats:
            raise ParallelError(
                "sharded overlay diverged from the serial batch engine: "
                f"{sharded_digest[:16]} != {serial_digest[:16]}"
            )
        speedup = wall_serial / wall_sharded if wall_sharded > 0 else 0.0
        return {
            # Every exchange happened twice (once per engine).
            "operations": serial_stats["exchanges"] * 2,
            "nodes": num_nodes,
            "rounds": rounds,
            "shards": num_shards,
            "workers": workers,
            "online_nodes": serial_stats["online_nodes"],
            "exchanges": serial_stats["exchanges"],
            "state_digest": serial_digest[:16],
            "digests_match": True,
            "wall_serial_s": wall_serial,
            "wall_sharded_s": wall_sharded,
            "wall_speedup": speedup,
            "wall_efficiency": speedup / workers,
        }

    return run


SUITE: Tuple[Workload, ...] = (
    Workload(
        "event_loop_churn",
        "event-loop throughput under cancel/reschedule churn (events/sec)",
        _prepare_event_loop_churn,
    ),
    Workload(
        "shuffle_round",
        "no-churn overlay gossip rounds at smoke scale",
        _prepare_shuffle_round,
    ),
    Workload(
        "brahms_sampler",
        "Brahms sampler slot folding of received batches",
        _prepare_brahms_sampler,
    ),
    Workload(
        "churn_sessions",
        "pre-generated churn session traces for a large population",
        _prepare_churn_sessions,
    ),
    Workload(
        "metrics_sample",
        "collector metric kernels on a 2k-node churned snapshot (fast vs networkx)",
        _prepare_metrics_sample,
    ),
    Workload(
        "mixnet_message",
        "end-to-end mixnet sends over cached circuits into the columnar log",
        _prepare_mixnet_message,
    ),
    Workload(
        "overlay_churn",
        "one overlay under live churn (Figure 8 inner loop)",
        _prepare_overlay_churn,
    ),
    Workload(
        "availability_sweep",
        "miniature Figure-3 availability sweep, full stack",
        _prepare_availability_sweep,
    ),
    Workload(
        "parallel_sweep",
        "serial vs multiprocess grid sweep (digest-checked equivalence)",
        _prepare_parallel_sweep,
    ),
    Workload(
        "net_codec",
        "wire-frame encode + strict decode of live-mesh traffic",
        _prepare_net_codec,
    ),
    Workload(
        "heavy_broadcast",
        "epidemic broadcast: batch frontier engine vs object plane "
        "(exactness-checked differential)",
        _prepare_heavy_broadcast,
    ),
    # The scale runs sit last as hygiene: rss_delta_kb already keeps
    # each workload's memory reading attributable regardless of order,
    # but front-loading the small entries keeps quick subset runs quick.
    Workload(
        "million_node_churn",
        "churned overlay at scale through the batch engine (peak-RSS gate)",
        _prepare_million_node_churn,
    ),
    Workload(
        "sharded_churn",
        "serial vs sharded batch engine at scale (digest-checked equivalence)",
        _prepare_sharded_churn,
    ),
    Workload(
        "million_message_broadcast",
        "sustained broadcast waves over a churning 100k-node batch overlay",
        _prepare_million_message_broadcast,
    ),
)


def workload_names() -> List[str]:
    """Names of every workload in the suite, in run order."""
    return [workload.name for workload in SUITE]
