"""Passive-observer traffic analysis over the traffic log's channel table.

The paper's external observer (Section II-D; e.g. an ISP) sees *which
channels carried messages when*, never the content — what
:class:`~repro.privlink.traffic.TrafficLog` records.  Every answer here
is a function of ``log.channels()`` alone, which the log folds
incrementally, so ``log`` may be a whole log or one of its windows.  The
questions are the passive-observation primitives of Mittal et al.,
*Preserving Link Privacy in Social Network Based Systems*.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from ..privlink.traffic import TrafficLog

__all__ = [
    "TrafficSummary",
    "endpoint_message_counts",
    "top_channels",
    "direct_node_channel_fraction",
    "summarize_traffic",
]


def endpoint_message_counts(log: TrafficLog) -> Dict[str, int]:
    """Messages touching each endpoint as source or destination: the
    channel table's row plus column sums (``src == dst`` counts twice)."""
    counts: Dict[str, int] = {}
    for (src, dst), count in log.channels().items():
        counts[src] = counts.get(src, 0) + count
        counts[dst] = counts.get(dst, 0) + count
    return counts


def top_channels(log: TrafficLog, limit: int = 10) -> List[Tuple[Tuple[str, str], int]]:
    """The ``limit`` busiest (src, dst) channels, heaviest first; ties
    break lexicographically on the names, whatever the interning order."""
    return sorted(log.channels().items(), key=lambda item: (-item[1], item[0]))[:limit]


def direct_node_channel_fraction(log: TrafficLog) -> float:
    """Fraction of observations on direct ``node: -> node:`` channels —
    two participants talking outside the relays, the signal a passive
    correlation attack needs.  1.0 for the ideal link layer; 0.0 for a
    mixnet-backed run (it must be) and for an empty log."""
    direct = sum(
        count for (src, dst), count in log.channels().items()
        if src.startswith("node:") and dst.startswith("node:")
    )
    return direct / len(log) if direct else 0.0


@dataclasses.dataclass(frozen=True)
class TrafficSummary:
    """What a passive observer tallies from one experiment's traffic."""

    total_records: int
    unique_endpoints: int
    unique_channels: int
    direct_node_fraction: float
    busiest_channel: Tuple[str, str]
    busiest_channel_count: int


def summarize_traffic(log: TrafficLog) -> TrafficSummary:
    """Observer summary of a log or window; ``ValueError`` when it is empty."""
    if not len(log):
        raise ValueError("cannot summarize an empty traffic log")
    ((busiest, busiest_count),) = top_channels(log, limit=1)
    return TrafficSummary(
        total_records=len(log),
        unique_endpoints=len(log.unique_endpoints()),
        unique_channels=len(log.channels()),
        direct_node_fraction=direct_node_channel_fraction(log),
        busiest_channel=busiest,
        busiest_channel_count=busiest_count,
    )
