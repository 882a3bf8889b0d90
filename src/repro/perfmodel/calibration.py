"""Calibration: fit machine-profile constants against DES measurements.

The analytical model and the discrete-event engine share the same
:class:`MachineProfile` constants, but the model makes steady-state
approximations (fluid rates, expected contention) while the engine
executes discrete tuples.  Calibration quantifies the residual between
them and, where a systematic bias exists, fits a correction:

- :func:`validation_report` — run a suite of micro-configurations on
  both substrates and report per-configuration model/DES ratios; tests
  assert the ratios stay within a band and preserve ordering.
- :func:`fit_flops_rate` — recover the effective per-thread FLOP rate
  from DES runs of a serial chain (a self-consistency check: the fit
  must return approximately the configured constant).

This gives the repository an analogue of the sanity pass a systems
paper does before trusting a model: "the simulator and the model agree
where they must".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..des.engine import measure_throughput
from ..graph.model import StreamGraph
from ..graph.topologies import pipeline
from ..runtime.queues import QueuePlacement
from ..sums import left_sum
from .machine import MachineProfile
from .throughput import PerformanceModel


@dataclass(frozen=True)
class ValidationRow:
    """One configuration measured on both substrates."""

    label: str
    des_throughput: float
    model_throughput: float

    @property
    def ratio(self) -> float:
        if self.model_throughput <= 0:
            return float("inf")
        return self.des_throughput / self.model_throughput


@dataclass(frozen=True)
class ValidationReport:
    rows: Tuple[ValidationRow, ...]

    @property
    def max_abs_log_ratio(self) -> float:
        import math

        return max(abs(math.log(r.ratio)) for r in self.rows)

    def ordering_preserved(self) -> bool:
        """True when DES and model rank the configurations identically.

        Near-ties (within 10 %) are not counted as ordering violations:
        both substrates carry noise of that magnitude.
        """
        for a in self.rows:
            for b in self.rows:
                if a.model_throughput > 1.1 * b.model_throughput:
                    if a.des_throughput < 0.9 * b.des_throughput:
                        return False
        return True


def _even_placement(graph: StreamGraph, k: int) -> QueuePlacement:
    eligible = [op.index for op in graph if not op.is_source]
    if k == 0:
        return QueuePlacement.empty()
    step = len(eligible) / k
    return QueuePlacement.of(eligible[int(i * step)] for i in range(k))


def validation_report(
    machine: MachineProfile,
    n_operators: int = 8,
    cost_flops: float = 2000.0,
    payload_bytes: int = 256,
    configs: Optional[Sequence[Tuple[int, int]]] = None,
    warmup_s: float = 0.004,
    measure_s: float = 0.02,
) -> ValidationReport:
    """Measure (queues, threads) configurations on both substrates."""
    if configs is None:
        configs = [(0, 0), (2, 2), (4, 3), (n_operators + 1, 4)]
    graph = pipeline(
        n_operators, cost_flops=cost_flops, payload_bytes=payload_bytes
    )
    model = PerformanceModel(graph, machine)
    rows: List[ValidationRow] = []
    for k, threads in configs:
        placement = (
            QueuePlacement.full(graph)
            if k > n_operators
            else _even_placement(graph, k)
        )
        des = measure_throughput(
            graph,
            machine,
            placement,
            threads,
            warmup_s=warmup_s,
            measure_s=measure_s,
        )
        rows.append(
            ValidationRow(
                label=f"q={placement.n_queues},t={threads}",
                des_throughput=des.sink_tuples_per_s,
                model_throughput=model.sink_throughput(
                    placement, threads
                ),
            )
        )
    return ValidationReport(rows=tuple(rows))


def fit_flops_rate(
    machine: MachineProfile,
    costs: Sequence[float] = (1000.0, 4000.0, 16000.0),
    n_operators: int = 4,
    measure_s: float = 0.02,
) -> float:
    """Estimate the per-thread FLOP rate from serial DES runs.

    A manual chain's per-tuple service time is
    ``total_flops / rate + fixed overheads``; running several chains
    with different total FLOPs and regressing service time on FLOPs
    recovers ``1 / rate`` as the slope.
    """
    xs = []
    ys = []
    for cost in costs:
        graph = pipeline(
            n_operators, cost_flops=cost, payload_bytes=16
        )
        result = measure_throughput(
            graph,
            machine,
            QueuePlacement.empty(),
            0,
            warmup_s=0.002,
            measure_s=measure_s,
        )
        total_flops = left_sum(op.cost_flops for op in graph)
        xs.append(total_flops)
        ys.append(1.0 / result.source_tuples_per_s)
    slope, _intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    if slope <= 0:
        raise RuntimeError(
            "calibration failed: non-positive slope from DES samples"
        )
    return 1.0 / slope
