"""Benchmark harness: baselines, per-figure experiments, reporting."""

from .harness import (
    BaselineResult,
    Comparison,
    compare,
    oracle_sweep,
    run_dynamic_only,
    run_hand_optimized,
    run_manual,
    run_multi_level,
)
from ..runtime.pool import derive_seed, parallel_enabled, run_cells
from .timeline import render_timeline
from .reporting import (
    app_table,
    comparison_table,
    format_table,
)

__all__ = [
    "derive_seed",
    "parallel_enabled",
    "run_cells",
    "BaselineResult",
    "Comparison",
    "compare",
    "oracle_sweep",
    "run_dynamic_only",
    "run_hand_optimized",
    "run_manual",
    "run_multi_level",
    "render_timeline",
    "app_table",
    "comparison_table",
    "format_table",
]
