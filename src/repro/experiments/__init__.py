"""Experiment harness: scales, runners, and per-figure reproductions of
the paper's evaluation (Section V).
"""

from .figures import (
    AvailabilityPoint,
    AvailabilitySweep,
    FigurePoint,
    availability_sweep,
    by_f,
    figure3,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure_table,
)
from .replication import ReplicatedValue, replicate, replicate_records
from .report import build_report, collect_result_tables
from .results import format_table, write_csv
from .store import ResultStore
from .sweeps import (
    SweepPoint,
    grid_sweep,
    point_store_key,
    sweep_table_rows,
    validate_axes,
)
from .runner import (
    OverlayRunResult,
    StaticMetrics,
    random_baseline_graph,
    run_overlay_experiment,
    static_churn_metrics,
)
from .scenarios import (
    PAPER,
    QUICK,
    SMOKE,
    ExperimentScale,
    clear_graph_cache,
    lifetime_label,
    make_config,
    make_trust_graph,
    scale_by_name,
    scale_from_env,
)

__all__ = [
    "ExperimentScale",
    "PAPER",
    "QUICK",
    "SMOKE",
    "scale_from_env",
    "make_config",
    "make_trust_graph",
    "clear_graph_cache",
    "lifetime_label",
    "OverlayRunResult",
    "run_overlay_experiment",
    "StaticMetrics",
    "static_churn_metrics",
    "random_baseline_graph",
    "AvailabilityPoint",
    "AvailabilitySweep",
    "availability_sweep",
    "FigurePoint",
    "by_f",
    "figure3",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure_table",
    "format_table",
    "write_csv",
    "ResultStore",
    "build_report",
    "collect_result_tables",
    "ReplicatedValue",
    "replicate",
    "replicate_records",
    "SweepPoint",
    "grid_sweep",
    "sweep_table_rows",
    "point_store_key",
    "validate_axes",
    "scale_by_name",
]
