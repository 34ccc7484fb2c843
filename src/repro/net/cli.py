"""``repro node`` / ``repro mesh`` — the live-network entry points.

``repro node`` runs ONE overlay node over real UDP::

    repro node --port 9000 --node-id 0 --seed 1            # seed node
    repro node --port 9001 --node-id 1 --bootstrap 127.0.0.1:9000 \\
               --trust-file trust.json

It builds the same :class:`~repro.core.node.OverlayNode` the simulator
uses, drives it with a :class:`~repro.net.clock.WallClock`, and keeps
running until SIGINT/SIGTERM (graceful drain, exit 130) or
``--duration`` periods elapse.

``repro mesh`` launches an N-node localhost mesh in one process —
deterministic loopback fabric by default, real UDP sockets with
``--transport udp`` — samples it through the metrics collector, and
checks convergence against a pure-simulator run at equal parameters::

    repro mesh --nodes 20 --duration 40 --seed 1
    repro mesh --nodes 9 --transport udp --logs-dir mesh-logs
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import NetError, ReproError
from ..shutdown import EXIT_INTERRUPTED, graceful_shutdown, install_async_shutdown
from .config import (
    NetNodeConfig,
    load_net_config,
    load_trust_file,
    merge_overrides,
    parse_hostport,
)
from .harness import (
    MeshSpec,
    converged_against,
    run_loopback_mesh,
    run_udp_mesh,
    simulate_reference,
)
from .transport import FaultPlan

__all__ = ["main", "node_main", "mesh_main"]


def _node_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro node",
        description="Run one live overlay node over UDP "
        "(see docs/networking.md).",
    )
    parser.add_argument("--config", default=None, help="TOML/JSON config file")
    parser.add_argument("--node-id", type=int, default=None)
    parser.add_argument("--host", default=None, help="bind host")
    parser.add_argument("--port", type=int, default=None, help="bind port (0=ephemeral)")
    parser.add_argument(
        "--bootstrap",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="seed node address (repeatable; omit to run as a seed)",
    )
    parser.add_argument(
        "--trust-file",
        default=None,
        help='shared trust file: {"<node_id>": [trusted ids...]}',
    )
    parser.add_argument("--seed", type=int, default=None, help="node RNG seed")
    parser.add_argument(
        "--seconds-per-period",
        type=float,
        default=None,
        help="wall seconds per shuffling period (default 1.0)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop after this many periods (default: run until signalled)",
    )
    return parser


async def _run_node(config: NetNodeConfig, duration: Optional[float]) -> int:
    # Imported here so `repro mesh --transport loopback` never pays for
    # the overlay stack it does not use.
    from ..core.node import OverlayNode
    from ..rng import RandomStreams
    from .clock import Scheduler, WallClock
    from .endpoint import NetEndpoint
    from .linklayer import MeshLinkLayer
    from .transport import UdpTransport

    loop = asyncio.get_running_loop()
    stop = install_async_shutdown(loop)
    clock = WallClock(
        seconds_per_period=config.seconds_per_period, loop=loop
    )
    scheduler = Scheduler(clock)
    streams = RandomStreams(config.seed)
    transport = UdpTransport(host=config.host, port=config.port)
    await transport.start()
    endpoint = NetEndpoint(
        node_id=config.node_id,
        clock=scheduler,
        transport=transport,
        rng=streams.substream("net", "endpoint", config.node_id),
        bootstrap=config.bootstrap,
        heartbeat_interval=config.heartbeat_interval,
        suspect_after=config.suspect_after,
        dead_after=config.dead_after,
        backoff_base=config.backoff_base,
        backoff_factor=config.backoff_factor,
        backoff_max=config.backoff_max,
        bootstrap_attempts=config.bootstrap_attempts,
    )
    link_layer = MeshLinkLayer()
    link_layer.add(endpoint)
    node = OverlayNode(
        node_id=config.node_id,
        trusted_neighbors=config.trusted,
        slot_count=config.slot_count,
        cache_size=config.cache_size,
        shuffle_length=config.shuffle_length,
        pseudonym_lifetime=config.pseudonym_lifetime,
        sim=scheduler,
        link_layer=link_layer,
        rng=streams.substream("node", config.node_id),
    )
    host, port = transport.local_address
    print(
        f"node {config.node_id} listening on {host}:{port} "
        f"({config.seconds_per_period:g}s/period, "
        f"{len(config.bootstrap)} bootstrap seed(s))",
        flush=True,
    )
    endpoint.start()
    node.come_online()

    interrupted = False
    try:
        if duration is None:
            await stop.wait()
            interrupted = True
        else:
            wall_seconds = duration * config.seconds_per_period
            stopper = asyncio.ensure_future(stop.wait())
            try:
                await asyncio.wait_for(
                    asyncio.shield(stopper), timeout=wall_seconds
                )
                interrupted = True
            except asyncio.TimeoutError:
                stopper.cancel()
    finally:
        # Drain: leave the overlay, say goodbye, close the socket.
        node.go_offline()
        endpoint.shutdown()
        for line in endpoint.log:
            print(f"  [node {config.node_id}] {line}")
        print(
            f"node {config.node_id} stopped at period "
            f"{scheduler.now:.1f}; counters: "
            + json.dumps(dict(sorted(endpoint.counters.items()))),
            flush=True,
        )
    return EXIT_INTERRUPTED if interrupted else 0


def node_main(argv: List[str]) -> int:
    """Entry point for ``repro node``."""
    args = _node_parser().parse_args(argv)
    try:
        config = (
            load_net_config(args.config) if args.config else NetNodeConfig()
        )
        bootstrap = (
            tuple(parse_hostport(b) for b in args.bootstrap)
            if args.bootstrap is not None
            else None
        )
        config = merge_overrides(
            config,
            node_id=args.node_id,
            host=args.host,
            port=args.port,
            seed=args.seed,
            seconds_per_period=args.seconds_per_period,
            bootstrap=bootstrap,
        )
        if args.trust_file:
            config = merge_overrides(
                config,
                trusted=load_trust_file(args.trust_file, config.node_id),
            )
    except ReproError as error:
        print(f"repro node: {error}", file=sys.stderr)
        return 2
    with graceful_shutdown():
        try:
            return asyncio.run(_run_node(config, args.duration))
        except KeyboardInterrupt:
            # Signal landed outside the loop's handler window (startup /
            # teardown); nothing is live at that point, exit cleanly.
            print("repro node: interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED
        except (NetError, OSError) as error:
            print(f"repro node: {error}", file=sys.stderr)
            return 1


def _mesh_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro mesh",
        description="Launch an N-node localhost mesh in one process and "
        "check it converges to the simulator's envelope.",
    )
    parser.add_argument("--nodes", type=int, default=9)
    parser.add_argument("--duration", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--transport",
        choices=("loopback", "udp"),
        default="loopback",
        help="loopback = deterministic in-process fabric; udp = real sockets",
    )
    parser.add_argument(
        "--seconds-per-period",
        type=float,
        default=0.05,
        help="wall pacing for UDP runs (default 0.05 s/period)",
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="loopback fault injection: frame loss rate",
    )
    parser.add_argument(
        "--reorder",
        type=float,
        default=0.0,
        help="loopback fault injection: reorder rate",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the mesh report (with digest) as JSON",
    )
    parser.add_argument(
        "--logs-dir",
        default=None,
        metavar="DIR",
        help="write per-node event logs here (CI artifact)",
    )
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help="skip the simulator reference run / convergence check",
    )
    return parser


def _write_mesh_artifacts(report, args) -> None:
    if args.json:
        payload = {
            "transport": report.transport,
            "num_nodes": report.num_nodes,
            "seed": report.seed,
            "duration": report.duration,
            "mean_degree": report.mean_degree,
            "fraction_disconnected": report.fraction_disconnected,
            "normalized_path_length": report.normalized_path_length,
            "all_bootstrapped": report.all_bootstrapped,
            "shuffle_offers": report.shuffle_offers,
            "counters": dict(sorted(report.counters.items())),
            "frames_per_node_period": report.frames_per_node_period,
            "liveness_share": report.liveness_share,
            "digest": report.digest(),
        }
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report written to {args.json}")
    if args.logs_dir:
        logs_dir = Path(args.logs_dir)
        logs_dir.mkdir(parents=True, exist_ok=True)
        for node_id, lines in enumerate(report.node_logs):
            (logs_dir / f"node-{node_id:03d}.log").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
        print(f"{len(report.node_logs)} node logs written to {logs_dir}")


def mesh_main(argv: List[str]) -> int:
    """Entry point for ``repro mesh``."""
    args = _mesh_parser().parse_args(argv)
    faults = None
    if args.loss or args.reorder:
        faults = FaultPlan(loss_rate=args.loss, reorder_rate=args.reorder)
    try:
        spec = MeshSpec(
            num_nodes=args.nodes,
            seed=args.seed,
            duration=args.duration,
            seconds_per_period=args.seconds_per_period,
            faults=faults,
        )
    except NetError as error:
        print(f"repro mesh: {error}", file=sys.stderr)
        return 2
    report = None
    with graceful_shutdown():
        try:
            print(
                f"running {args.nodes}-node {args.transport} mesh "
                f"(seed={args.seed}, duration={args.duration:g} periods)...",
                flush=True,
            )
            if args.transport == "udp":
                report = run_udp_mesh(spec)
            else:
                report = run_loopback_mesh(spec)
        except KeyboardInterrupt:
            print("repro mesh: interrupted before completion", file=sys.stderr)
            return EXIT_INTERRUPTED
        except (NetError, OSError) as error:
            print(f"repro mesh: {error}", file=sys.stderr)
            return 1

    print(
        f"mesh done: mean degree {report.mean_degree:.2f}, "
        f"disconnected {report.fraction_disconnected:.3f}, "
        f"{report.shuffle_offers} shuffle offers, "
        f"bootstrapped={'all' if report.all_bootstrapped else 'PARTIAL'}"
    )
    print(
        f"traffic: {report.frames_per_node_period:.2f} frames per node-period, "
        f"liveness share {report.liveness_share:.3f}"
    )
    print(f"digest: {report.digest()}")
    _write_mesh_artifacts(report, args)
    if args.no_reference:
        return 0
    reference = simulate_reference(spec)
    ok, summary = converged_against(report, reference)
    print(f"convergence vs simulator: {summary}")
    if not ok:
        print("repro mesh: mesh did NOT converge to the simulator envelope",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch ``node``/``mesh`` (called from the top-level CLI)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("node", "mesh"):
        print("usage: repro {node,mesh} [options]", file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "node":
        return node_main(rest)
    return mesh_main(rest)


if __name__ == "__main__":
    sys.exit(main())
