"""Performance metrics for overlay experiments (paper Section IV-C):
connectivity, normalized path length, degree distributions, message and
link-replacement overhead, and time-series collection.

Graph-level metrics (largest component, path lengths, histograms) are
:class:`repro.graphs.SnapshotAnalysis`; this package adds the pieces
that need a *running* overlay.  Overhead is counted in messages, as
in the paper; the live overlay's frame bytes are :mod:`repro.net.codec`'s.
"""

from .collector import MetricsCollector
from .overhead import NodeOverhead, mean_messages_per_period, message_overhead_by_rank
from .series import TimeSeries

__all__ = [
    "TimeSeries",
    "MetricsCollector",
    "NodeOverhead",
    "message_overhead_by_rank",
    "mean_messages_per_period",
]
