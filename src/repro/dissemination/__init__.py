"""Application-layer data dissemination over the maintained overlay:
controlled flooding and epidemic push gossip on either plane, with
per-broadcast coverage/latency records.  These are the workloads the
paper's introduction motivates (micro-news, mailing lists, group chat
for privacy-sensitive groups).
"""

from .antientropy import AntiEntropyBroadcast, DigestMessage, PushMessage
from .base import (
    AppMessage,
    BroadcastRecord,
    Disseminator,
    build_channel_lists,
    channel_keys,
)
from .batch import (
    BatchBroadcastEngine,
    BroadcastLedger,
    ChannelSnapshot,
    LedgerRecordView,
)
from .epidemic import EpidemicBroadcast

__all__ = [
    "AppMessage",
    "BroadcastRecord",
    "Disseminator",
    "EpidemicBroadcast",
    "AntiEntropyBroadcast",
    "DigestMessage",
    "PushMessage",
    "build_channel_lists",
    "channel_keys",
    "ChannelSnapshot",
    "BroadcastLedger",
    "LedgerRecordView",
    "BatchBroadcastEngine",
]
