"""Generic parameter sweeps over :class:`~repro.config.SystemConfig`.

Every figure is a sweep (see :mod:`~repro.experiments.figures`), and
users exploring the design space sweep *anything* (cache size x
availability, lifetime x fanout, ...).  :func:`grid_sweep` runs an
experiment function over the cartesian product of config-field values,
optionally memoizing each point in a
:class:`~repro.experiments.store.ResultStore`, and returns records
ready for :func:`~repro.experiments.results.format_table`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import ExperimentError
from ..parallel.engine import parallel_map
from .store import ResultStore

__all__ = [
    "SweepPoint",
    "grid_sweep",
    "sweep_table_rows",
    "point_store_key",
    "validate_axes",
]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One grid point: the overridden fields and the measured outcome."""

    overrides: Tuple[Tuple[str, Any], ...]
    outcome: Any

    def override(self, name: str) -> Any:
        """Value of one overridden field at this point."""
        for key, value in self.overrides:
            if key == name:
                return value
        raise ExperimentError(f"{name!r} is not a swept field")


def validate_axes(axes: Mapping[str, Sequence[Any]]) -> None:
    """Reject axes naming unknown config fields or holding no values."""
    if not axes:
        raise ExperimentError("a sweep needs at least one axis")
    valid = {field.name for field in dataclasses.fields(SystemConfig)}
    for name, values in axes.items():
        if name not in valid:
            raise ExperimentError(f"unknown SystemConfig field {name!r}")
        if not values:
            raise ExperimentError(f"axis {name!r} has no values")


def point_store_key(store_prefix: str, overrides: Sequence[Tuple[str, Any]]) -> str:
    """The store key one grid point memoizes under, for any worker count."""
    return store_prefix + "_" + "_".join(
        f"{name}-{value}" for name, value in overrides
    ).replace("/", "-").replace(".", "p")


def _experiment_identity(experiment: Callable[[SystemConfig], Any]) -> str:
    """What the sweep memo records about ``experiment``.

    A function is named by its dotted qualified name; a callable instance,
    such as a frozen dataclass (``FigurePoint``, ...), by its
    ``repr``, which carries every parameter.
    """
    qualname = getattr(experiment, "__qualname__", None)
    if qualname is None:
        return repr(experiment)
    return f"{experiment.__module__}.{qualname}"


def grid_sweep(
    base_config: SystemConfig,
    axes: Mapping[str, Sequence[Any]],
    experiment: Callable[[SystemConfig], Any],
    store: Optional[ResultStore] = None,
    store_prefix: str = "sweep",
    workers: int = 1,
) -> List[SweepPoint]:
    """Run ``experiment`` over the cartesian product of ``axes``.

    Parameters
    ----------
    base_config:
        The configuration every point starts from.
    axes:
        Mapping of :class:`SystemConfig` field name to the values to
        try.  The grid is the cartesian product in the mapping's order.
    experiment:
        ``experiment(config) -> outcome``.  The outcome must be
        JSON-serializable if a store is used.
    store:
        Optional result store; each point is memoized under a key built
        from ``store_prefix`` and the overrides, and reused only while
        the base config and the experiment are unchanged.  The process
        that computes a point saves it, so re-running a partially
        completed (interrupted or failed) sweep computes only the
        missing points.
    store_prefix:
        Namespace for stored point names.
    workers:
        Worker-process count for :func:`repro.parallel.parallel_map`;
        the points come back in grid order, identical for any count.

    Returns
    -------
    list of SweepPoint
        In grid order.
    """
    validate_axes(axes)
    names = list(axes.keys())
    grid = [
        tuple(zip(names, combo))
        for combo in itertools.product(*(axes[name] for name in names))
    ]
    identity = _experiment_identity(experiment)

    def _point(overrides: Tuple[Tuple[str, Any], ...]) -> SweepPoint:
        config = base_config.replace(**dict(overrides))
        if store is None:
            outcome = experiment(config)
        else:
            outcome = store.get_or_compute(
                point_store_key(store_prefix, overrides),
                lambda: experiment(config),
                metadata={
                    "seed": base_config.seed,
                    "overrides": repr(overrides),
                    "base_config": repr(base_config),
                    "experiment": identity,
                },
            )
        return SweepPoint(overrides=overrides, outcome=outcome)

    return parallel_map(_point, grid, workers)


def sweep_table_rows(
    points: Sequence[SweepPoint],
    outcome_fields: Optional[Sequence[str]] = None,
) -> Tuple[List[str], List[Tuple]]:
    """Turn sweep points into (headers, rows) for ``format_table``.

    Scalar outcomes get one ``outcome`` column; dict outcomes get one
    column per key (or per requested ``outcome_fields``).
    """
    if not points:
        raise ExperimentError("no sweep points")
    axis_names = [name for name, _ in points[0].overrides]
    first = points[0].outcome
    if isinstance(first, dict):
        fields = list(outcome_fields) if outcome_fields else sorted(first)
    else:
        fields = ["outcome"]
    headers = axis_names + fields
    rows: List[Tuple] = []
    for point in points:
        row: List[Any] = [value for _, value in point.overrides]
        if isinstance(point.outcome, dict):
            row.extend(point.outcome.get(field) for field in fields)
        else:
            row.append(point.outcome)
        rows.append(tuple(row))
    return headers, rows
