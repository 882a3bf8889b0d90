"""Simulated SPL runtime: PE, queues, regions, adaptation executor.

Submodules are imported lazily (PEP 562): the performance model imports
``repro.runtime.queues``/``regions`` while ``repro.runtime.pe`` imports
the performance model, so an eager package init would be circular.
"""

from typing import TYPE_CHECKING

from .config import ElasticityConfig, RuntimeConfig
from .events import (
    AdaptationTrace,
    Observation,
    PlacementChange,
    ThreadCountChange,
)
from .queues import PlacementError, QueuePlacement
from .regions import Region, RegionDecomposition, decompose
from .snapshot import load_trace, save_trace, trace_from_dict, trace_to_dict

if TYPE_CHECKING:  # pragma: no cover - type-checking only
    from .backend import AdaptationBackend, BackendResult
    from .executor import (
        AdaptationExecutor,
        ExecutionResult,
        run_elastic,
        run_periods,
    )
    from .pe import ProcessingElement

_LAZY = {
    "AdaptationBackend": ("repro.runtime.backend", "AdaptationBackend"),
    "BackendResult": ("repro.runtime.backend", "BackendResult"),
    "AdaptationExecutor": ("repro.runtime.executor", "AdaptationExecutor"),
    "ExecutionResult": ("repro.runtime.executor", "ExecutionResult"),
    "run_elastic": ("repro.runtime.executor", "run_elastic"),
    "run_periods": ("repro.runtime.executor", "run_periods"),
    "ProcessingElement": ("repro.runtime.pe", "ProcessingElement"),
    "PeReport": ("repro.runtime.introspect", "PeReport"),
    "RegionReport": ("repro.runtime.introspect", "RegionReport"),
    "inspect_pe": ("repro.runtime.introspect", "inspect"),
    "Job": ("repro.runtime.job", "Job"),
    "JobResult": ("repro.runtime.job", "JobResult"),
    "PeStageResult": ("repro.runtime.job", "PeStageResult"),
    "SnapshotProfiler": ("repro.runtime.threads", "SnapshotProfiler"),
    "ThreadRegistry": ("repro.runtime.threads", "ThreadRegistry"),
}

__all__ = [
    "load_trace",
    "save_trace",
    "trace_from_dict",
    "trace_to_dict",
    "ElasticityConfig",
    "RuntimeConfig",
    "AdaptationTrace",
    "Observation",
    "PlacementChange",
    "ThreadCountChange",
    "AdaptationBackend",
    "BackendResult",
    "AdaptationExecutor",
    "ExecutionResult",
    "run_elastic",
    "run_periods",
    "ProcessingElement",
    "PeReport",
    "RegionReport",
    "inspect_pe",
    "Job",
    "JobResult",
    "PeStageResult",
    "SnapshotProfiler",
    "ThreadRegistry",
    "PlacementError",
    "QueuePlacement",
    "Region",
    "RegionDecomposition",
    "decompose",
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
