"""Per-node overhead statistics (Figure 6).

The paper ranks nodes by their trust-graph degree and reports, per
node, the average number of messages sent per shuffle period *while the
node was online*, next to the node's maximum out-degree in the overlay.
The expected system-wide average is 2 (one request per node per period
plus, on average, one response), with high-degree nodes answering more
requests because more peers hold links to them.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core import BatchOverlay, Overlay
from ..errors import ExperimentError

__all__ = ["NodeOverhead", "message_overhead_by_rank", "mean_messages_per_period"]


@dataclasses.dataclass(frozen=True)
class NodeOverhead:
    """One node's overhead summary."""

    node_id: int
    trust_degree: int
    messages_per_period: float
    max_out_degree: int


def message_overhead_by_rank(
    overlay: Union[Overlay, BatchOverlay],
    max_out_degrees: Optional[Sequence[int]] = None,
    min_online_time: float = 1.0,
) -> List[NodeOverhead]:
    """Per-node overhead, sorted by descending trust-graph degree.

    Parameters
    ----------
    overlay:
        A (finished or running) overlay experiment on either engine;
        read through its per-node ``node_counters()``.
    max_out_degrees:
        Per-node maximum observed out-degree, as collected by
        :class:`~repro.metrics.collector.MetricsCollector`; falls back
        to the current out-degree when not supplied.
    min_online_time:
        Nodes online for less than this many periods are reported with
        zero rate instead of a noisy ratio.

    Returns
    -------
    list of NodeOverhead
        Index 0 is the highest-trust-degree node (rank 1 in Figure 6).
    """
    if min_online_time <= 0:
        raise ExperimentError("min_online_time must be positive")
    counters = overlay.node_counters()
    online_time = counters["online_time"]
    rates = np.divide(
        counters["messages_sent"],
        online_time,
        out=np.zeros(len(online_time)),
        where=online_time >= min_online_time,
    )
    if max_out_degrees is None:
        max_out_degrees = overlay.out_degrees()
    # (trust degree, rate, max out-degree) per node, in id order.
    rows = zip(
        counters["trust_degree"].tolist(),
        rates.tolist(),
        np.asarray(max_out_degrees).tolist(),
    )
    summaries = [NodeOverhead(node_id, *row) for node_id, row in enumerate(rows)]
    summaries.sort(key=lambda entry: (-entry.trust_degree, entry.node_id))
    return summaries


def mean_messages_per_period(overlay: Union[Overlay, BatchOverlay]) -> float:
    """System-wide average messages per node per online period.

    The paper's sanity check: this should be close to 2.
    """
    counters = overlay.node_counters()
    # Summed in node order, left to right.
    total_online_time = sum(counters["online_time"].tolist())
    if total_online_time <= 0:
        return 0.0
    return int(counters["messages_sent"].sum()) / total_online_time
