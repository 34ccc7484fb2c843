"""Live-network layer: the simulator's protocol objects over real sockets.

The packages below put the *same* :mod:`repro.core` protocol code on a
wire.  Nothing in the protocol changes — it already only talks to a
:class:`~repro.sim.clock.Clock` and a link-layer facade — so this
package supplies network-backed implementations of both:

* :mod:`repro.net.clock` — :class:`WallClock` (asyncio-timer clock in
  shuffling-period units) and :class:`Scheduler` (sim/wall facade);
* :mod:`repro.net.codec` — length-prefixed, versioned wire frames with
  strict non-throwing decode;
* :mod:`repro.net.transport` — asyncio UDP plus a deterministic
  in-process loopback fabric with injectable faults;
* :mod:`repro.net.peers` / :mod:`repro.net.endpoint` — bootstrap,
  heartbeats, two-level dead-peer detection, pseudonym registry;
* :mod:`repro.net.linklayer` — LinkLayer adapters for one node
  (``repro node``) or an N-node in-process mesh;
* :mod:`repro.net.config` — seed-node TOML/JSON configuration;
* :mod:`repro.net.harness` — the localhost mesh harness and its
  convergence check against the simulator.

See ``docs/networking.md`` for the architecture tour and wire format.
"""

from .clock import Scheduler, WallClock
from .codec import (
    MAX_FRAME,
    WIRE_VERSION,
    CodecError,
    decode_frame,
    encode_frame,
)
from .config import (
    NetNodeConfig,
    load_net_config,
    load_trust_file,
    merge_overrides,
    parse_hostport,
)
from .endpoint import NetEndpoint
from .harness import (
    MeshReport,
    MeshSpec,
    converged_against,
    run_loopback_mesh,
    run_udp_mesh,
    simulate_reference,
)
from .linklayer import MeshLinkLayer
from .peers import PeerRecord, PeerTable
from .transport import (
    FaultPlan,
    LoopbackNetwork,
    LoopbackTransport,
    UdpTransport,
)

__all__ = [
    "Scheduler",
    "WallClock",
    "MAX_FRAME",
    "WIRE_VERSION",
    "CodecError",
    "decode_frame",
    "encode_frame",
    "NetNodeConfig",
    "load_net_config",
    "load_trust_file",
    "merge_overrides",
    "parse_hostport",
    "NetEndpoint",
    "MeshReport",
    "MeshSpec",
    "converged_against",
    "run_loopback_mesh",
    "run_udp_mesh",
    "simulate_reference",
    "MeshLinkLayer",
    "PeerRecord",
    "PeerTable",
    "FaultPlan",
    "LoopbackNetwork",
    "LoopbackTransport",
    "UdpTransport",
]
