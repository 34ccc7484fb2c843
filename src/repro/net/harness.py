"""Localhost mesh harness: N live nodes in one process, measured.

This is the integration bar for the network layer: build a *real*
:class:`~repro.core.protocol.Overlay` whose link layer is a
:class:`~repro.net.linklayer.MeshLinkLayer` of N
:class:`~repro.net.endpoint.NetEndpoint` instances, run it, sample it
with the stock :class:`~repro.metrics.MetricsCollector`, and compare
the result against a plain-simulator run at identical parameters.

Two fabrics, one code path:

* :func:`run_loopback_mesh` — the deterministic fabric: a
  :class:`~repro.sim.simulator.Simulator` drives the clock and a
  seeded :class:`~repro.net.transport.LoopbackNetwork` carries frames
  with injectable faults.  Same spec, same seed -> byte-identical
  :meth:`MeshReport.digest`.
* :func:`run_udp_mesh` — the real thing: ephemeral UDP sockets on
  localhost under a :class:`~repro.net.clock.WallClock` and asyncio.

Node 0 is the seed node (it bootstraps nobody and serves the pseudonym
directory); everyone else configures node 0's address as bootstrap.
The trust graph is a ring lattice built without randomness, so the
harness's only entropy is the spec's seed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..core import Overlay
from ..errors import NetError
from ..graphs import FlatSnapshot
from ..metrics import MetricsCollector
from ..rng import RandomStreams
from ..sim import Simulator
from .clock import Scheduler, WallClock
from .endpoint import NetEndpoint
from .linklayer import MeshLinkLayer
from .transport import FaultPlan, LoopbackNetwork, UdpTransport

__all__ = [
    "MeshSpec",
    "MeshReport",
    "ring_trust_graph",
    "mesh_system_config",
    "run_loopback_mesh",
    "run_udp_mesh",
    "simulate_reference",
    "converged_against",
]


@dataclasses.dataclass(frozen=True)
class MeshSpec:
    """Parameters for one localhost mesh run (times in shuffling periods)."""

    num_nodes: int = 9
    seed: int = 1
    duration: float = 40.0
    #: Trusted degree of the ring lattice (each node trusts the k
    #: nearest ring neighbors; must be even and >= 2).
    lattice_degree: int = 4
    target_degree: int = 8
    cache_size: int = 40
    shuffle_length: int = 8
    #: Deliberately NOT a divisor of the default duration: with churn
    #: off, every pseudonym minted at t=0 expires at each lifetime
    #: multiple (a 1–2 period degree dip while renewals re-propagate),
    #: so measuring exactly on a multiple reads the trough.
    pseudonym_lifetime: float = 15.0
    sample_interval: float = 2.0
    path_length_every: int = 2
    heartbeat_interval: float = 1.0
    suspect_after: float = 3.0
    dead_after: float = 9.0
    #: Wall seconds per period (UDP runs only).
    seconds_per_period: float = 0.05
    #: Loopback fault injection (loopback runs only; None = clean net).
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 3:
            raise NetError("a mesh needs at least 3 nodes")
        if self.lattice_degree < 2 or self.lattice_degree % 2:
            raise NetError("lattice_degree must be even and >= 2")
        if self.lattice_degree >= self.num_nodes:
            raise NetError("lattice_degree must be below num_nodes")
        if self.duration <= 0:
            raise NetError("duration must be positive")


@dataclasses.dataclass(frozen=True)
class MeshReport:
    """What a mesh run produced (see :meth:`digest` for reproducibility)."""

    transport: str
    num_nodes: int
    seed: int
    duration: float
    #: Final-sample overlay health.
    mean_degree: float
    fraction_disconnected: float
    normalized_path_length: Optional[float]
    #: All nodes bootstrapped (seeds count as bootstrapped).
    all_bootstrapped: bool
    #: Total shuffle offers decoded across the mesh (proof the overlay
    #: actually exchanged state over the wire).
    shuffle_offers: int
    #: Aggregated endpoint counters (summed over nodes).
    counters: Dict[str, int]
    #: Sampled disconnected-fraction series as (time, value) pairs.
    disconnected_series: Tuple[Tuple[float, float], ...]
    #: Per-node event logs (bootstrap, suspicion, shutdown...).
    node_logs: Tuple[Tuple[str, ...], ...]

    @property
    def frames_per_node_period(self) -> float:
        """Frames sent per node per period, bootstrap included."""
        return self.counters["frames_out"] / (self.num_nodes * self.duration)

    @property
    def liveness_share(self) -> float:
        """Share of sent frames that are hello/ack/heartbeat/goodbye."""
        return self.counters["liveness_out"] / max(self.counters["frames_out"], 1)

    def digest(self) -> str:
        """Stable hash of everything deterministic about the run."""
        payload = {
            "transport": self.transport,
            "num_nodes": self.num_nodes,
            "seed": self.seed,
            "duration": self.duration,
            "mean_degree": round(self.mean_degree, 9),
            "fraction_disconnected": round(self.fraction_disconnected, 9),
            "normalized_path_length": (
                None
                if self.normalized_path_length is None
                else round(self.normalized_path_length, 9)
            ),
            "all_bootstrapped": self.all_bootstrapped,
            "shuffle_offers": self.shuffle_offers,
            "counters": dict(sorted(self.counters.items())),
            "disconnected_series": [
                (round(t, 9), round(v, 9)) for t, v in self.disconnected_series
            ],
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def ring_trust_graph(num_nodes: int, lattice_degree: int) -> FlatSnapshot:
    """A ring lattice: node i trusts its k nearest ring neighbors.

    Built arithmetically — no RNG — so the trust topology is a pure
    function of the spec.
    """
    nodes = np.arange(num_nodes, dtype=np.int64)
    steps = np.arange(1, lattice_degree // 2 + 1, dtype=np.int64)
    holders = np.repeat(nodes, len(steps))
    return FlatSnapshot.from_edge_positions(
        nodes, holders, (holders + np.tile(steps, num_nodes)) % num_nodes
    )


def mesh_system_config(spec: MeshSpec) -> SystemConfig:
    """The :class:`SystemConfig` equivalent of a mesh spec.

    ``pseudonym_lifetime`` is ``lifetime_ratio * mean_offline_time``;
    the mesh runs churn-free, so we express the spec's lifetime through
    the ratio against a fixed nominal offline time.
    """
    return SystemConfig(
        num_nodes=spec.num_nodes,
        mean_offline_time=10.0,
        lifetime_ratio=spec.pseudonym_lifetime / 10.0,
        cache_size=spec.cache_size,
        shuffle_length=spec.shuffle_length,
        target_degree=spec.target_degree,
        min_pseudonym_links=2,
        seed=spec.seed,
    )


def _final(series) -> Optional[float]:
    values = series.values
    return float(values[-1]) if len(values) else None


def _report(
    transport: str,
    spec: MeshSpec,
    overlay: Overlay,
    collector: MetricsCollector,
    endpoints: List[NetEndpoint],
) -> MeshReport:
    degrees = overlay.online_out_degrees()
    mean_degree = float(degrees.mean()) if degrees.size else 0.0
    counters: Dict[str, int] = {}
    for endpoint in endpoints:
        for key, value in endpoint.counters.items():
            counters[key] = counters.get(key, 0) + value
    disconnected = _final(collector.disconnected)
    return MeshReport(
        transport=transport,
        num_nodes=spec.num_nodes,
        seed=spec.seed,
        duration=spec.duration,
        mean_degree=mean_degree,
        fraction_disconnected=(
            disconnected if disconnected is not None else 1.0
        ),
        normalized_path_length=_final(collector.path_length),
        all_bootstrapped=all(e.bootstrapped for e in endpoints),
        shuffle_offers=sum(
            e.counters["shuffle_offers_in"] for e in endpoints
        ),
        counters=counters,
        disconnected_series=tuple(
            (float(t), float(v))
            for t, v in zip(
                collector.disconnected.times.tolist(),
                collector.disconnected.values.tolist(),
            )
        ),
        node_logs=tuple(tuple(e.log) for e in endpoints),
    )


def _build_mesh(
    spec: MeshSpec,
    scheduler: Scheduler,
    streams: RandomStreams,
    transports: List,
    addresses: List[Tuple[str, int]],
) -> Tuple[Overlay, MetricsCollector, List[NetEndpoint]]:
    """Wire endpoints + link layer + overlay + collector (fabric-agnostic)."""
    seed_address = addresses[0]
    mesh = MeshLinkLayer()
    endpoints: List[NetEndpoint] = []
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
        mesh_system_config(spec),
        scheduler,
        mesh,
        streams,
    )
    collector = MetricsCollector(
        overlay,
        interval=spec.sample_interval,
        path_length_every=spec.path_length_every,
        rng=overlay.substream("mesh-collector"),
    )
    for endpoint in endpoints:
        endpoint.start()
    return overlay, collector, endpoints


def run_loopback_mesh(spec: MeshSpec) -> MeshReport:
    """Run the mesh on the deterministic in-process fabric."""
    sim = Simulator()
    scheduler = Scheduler(sim)
    streams = RandomStreams(spec.seed)
    network = LoopbackNetwork(
        scheduler,
        streams.substream("net", "fabric"),
        faults=spec.faults,
    )
    transports = [network.transport() for _ in range(spec.num_nodes)]
    addresses = [t.local_address for t in transports]
    overlay, collector, endpoints = _build_mesh(
        spec, scheduler, streams, transports, addresses
    )
    overlay.start()
    collector.start()
    scheduler.run_until(spec.duration)
    report = _report("loopback", spec, overlay, collector, endpoints)
    # Stop the protocol first (no more shuffle ticks into closing
    # sockets), then say goodbye and drain the in-flight frames.
    for node in overlay.nodes:
        node.go_offline()
    for endpoint in endpoints:
        endpoint.shutdown()
    scheduler.run_until(spec.duration + 1.0)
    # Metrics were frozen pre-shutdown; the logs should still show it.
    return dataclasses.replace(
        report, node_logs=tuple(tuple(e.log) for e in endpoints)
    )


async def _run_udp_mesh(spec: MeshSpec) -> MeshReport:
    loop = asyncio.get_running_loop()
    clock = WallClock(seconds_per_period=spec.seconds_per_period, loop=loop)
    scheduler = Scheduler(clock)
    streams = RandomStreams(spec.seed)
    transports = [UdpTransport(port=0) for _ in range(spec.num_nodes)]
    for transport in transports:
        await transport.start()
    addresses = [t.local_address for t in transports]
    overlay, collector, endpoints = _build_mesh(
        spec, scheduler, streams, transports, addresses
    )
    overlay.start()
    collector.start()
    await scheduler.run_for(spec.duration)
    report = _report("udp", spec, overlay, collector, endpoints)
    for node in overlay.nodes:
        node.go_offline()
    for endpoint in endpoints:
        endpoint.shutdown()
    # One beat of real time for the goodbyes to land, then the sockets
    # are gone (endpoint.shutdown closed them).
    await asyncio.sleep(0.05)
    return dataclasses.replace(
        report, node_logs=tuple(tuple(e.log) for e in endpoints)
    )


def run_udp_mesh(spec: MeshSpec) -> MeshReport:
    """Run the mesh over real localhost UDP sockets (blocking wrapper)."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(_run_udp_mesh(spec))
    raise RuntimeError(
        "run_udp_mesh cannot run inside a live event loop; "
        "await _run_udp_mesh(spec) instead"
    )


def simulate_reference(spec: MeshSpec) -> Tuple[float, float]:
    """(mean degree, disconnected fraction) from a pure-simulator run.

    Same trust graph, same :class:`SystemConfig`, no churn, ideal link
    layer — the envelope the live mesh must converge into.

    The degree is a time average over the final pseudonym lifetime, not
    a reading at ``spec.duration``: with churn off every pseudonym is
    minted at t = 0, so all of them expire together at each lifetime
    multiple and the degree falls to the trusted links for an instant.
    The live mesh mints as nodes bootstrap and dips later and
    shallower, so a point sample on a multiple compares a trough with
    a plateau.  One lifetime holds exactly one dip wherever it ends.
    """
    overlay = Overlay.build(
        ring_trust_graph(spec.num_nodes, spec.lattice_degree),
        mesh_system_config(spec),
        with_churn=False,
    )
    collector = MetricsCollector(
        overlay,
        interval=spec.sample_interval,
        path_length_every=spec.path_length_every,
        rng=overlay.substream("mesh-collector"),
    )
    overlay.start()
    collector.start()
    readings = []
    now = max(spec.duration - spec.pseudonym_lifetime, 0.0)
    while now < spec.duration:
        now = min(now + spec.sample_interval, spec.duration)
        overlay.run_until(now)
        readings.append(float(overlay.online_out_degrees().mean()))
    disconnected = _final(collector.disconnected)
    return (
        sum(readings) / len(readings),
        disconnected if disconnected is not None else 1.0,
    )


def converged_against(
    report: MeshReport,
    reference: Tuple[float, float],
    degree_slack: float = 0.35,
    disconnected_slack: float = 0.10,
) -> Tuple[bool, str]:
    """Judge a live run against the simulator envelope.

    The live mesh must reach the simulator's mean degree within a
    relative ``degree_slack`` (plus one absolute link of grace for tiny
    meshes) and match its connectivity within ``disconnected_slack``.
    Returns ``(ok, human summary)``.
    """
    ref_degree, ref_disconnected = reference
    degree_gap = abs(report.mean_degree - ref_degree)
    degree_budget = max(1.0, degree_slack * ref_degree)
    disconnected_gap = abs(report.fraction_disconnected - ref_disconnected)
    checks = [
        (
            report.all_bootstrapped,
            "bootstrap: all nodes acked"
            if report.all_bootstrapped
            else "bootstrap: some nodes never acked",
        ),
        (
            report.shuffle_offers > 0,
            f"shuffles: {report.shuffle_offers} offers crossed the wire",
        ),
        (
            degree_gap <= degree_budget,
            f"degree: mesh {report.mean_degree:.2f} vs sim {ref_degree:.2f} "
            f"(gap {degree_gap:.2f}, budget {degree_budget:.2f})",
        ),
        (
            disconnected_gap <= disconnected_slack,
            f"connectivity: mesh {report.fraction_disconnected:.3f} vs sim "
            f"{ref_disconnected:.3f}",
        ),
    ]
    ok = all(passed for passed, _ in checks)
    summary = "; ".join(
        ("PASS " if passed else "FAIL ") + text for passed, text in checks
    )
    return ok, summary
