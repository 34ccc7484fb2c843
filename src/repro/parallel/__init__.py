"""Deterministic multiprocess experiment execution.

The paper's evaluation is a grid of independent simulation points; this
package runs such grids on forked worker processes while keeping the
results byte-identical to a serial run.  Two pieces:

* :mod:`~repro.parallel.engine` — :func:`parallel_map`, an ordered map
  over independent points on forked workers; the figure harnesses and
  :func:`repro.experiments.grid_sweep` fan out through it.
* :mod:`~repro.parallel.shard` — :class:`ShardedOverlay`, *one*
  deterministic batch-engine run spread across worker processes
  (sweeps parallelize across points; shards parallelize within one).

See ``docs/parallel.md`` for the architecture and the determinism
guarantees.
"""

from .engine import fork_available, parallel_map
from .shard import ShardOptions, ShardedOverlay

__all__ = [
    "parallel_map",
    "fork_available",
    "ShardOptions",
    "ShardedOverlay",
]
