"""Experiment definitions: one entry point per paper table/figure.

Each ``figNN_*`` function runs the corresponding experiment and returns
structured results; the ``benchmarks/`` suite wraps these in
pytest-benchmark targets, prints the paper-style tables and asserts the
qualitative shapes.  Parameter grids default to a scaled-down version of
the paper's (for tractable run time) and accept the full grids via
arguments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps.packet_analysis import (
    build_packet_analysis,
    hand_optimized as packet_hand_optimized,
)
from ..apps.vwap import build_vwap, hand_optimized as vwap_hand_optimized
from ..apps.workloads import phase_change
from ..core.saso import SasoReport, analyze
from ..graph.cost import CostDistribution, assign_costs, balanced, skewed
from ..graph.model import StreamGraph
from ..graph.topologies import bushy_82, data_parallel, mixed, pipeline
from ..perfmodel.machine import (
    MachineProfile,
    laptop,
    power8_184,
    xeon_176,
)
from ..runtime.config import ElasticityConfig, RuntimeConfig
from ..runtime.events import AdaptationTrace
from ..runtime.executor import AdaptationExecutor
from ..runtime.pe import ProcessingElement
from ..runtime.pool import run_cells
from ..sums import left_sum
from .harness import (
    Comparison,
    compare,
    oracle_sweep,
    run_multi_level,
)

MACHINES = {"xeon": xeon_176, "power8": power8_184}


def _config(
    machine: MachineProfile,
    seed: int = 0,
    elasticity: Optional[ElasticityConfig] = None,
) -> RuntimeConfig:
    return RuntimeConfig(
        cores=machine.logical_cores,
        seed=seed,
        elasticity=elasticity or ElasticityConfig(),
    )


# ----------------------------------------------------------------------
# Figure 1 — motivation: throughput vs fraction of dynamic operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig01Result:
    payload_bytes: int
    cores: int
    sweep: Tuple[Tuple[float, int, float], ...]
    auto_throughput: float
    auto_fraction: float
    auto_threads: int

    @property
    def best_sweep_throughput(self) -> float:
        return max(t for _f, _n, t in self.sweep)

    @property
    def best_fraction(self) -> float:
        return max(self.sweep, key=lambda row: row[2])[0]

    @property
    def manual_throughput(self) -> float:
        return next(t for f, _n, t in self.sweep if f == 0.0)

    @property
    def full_dynamic_throughput(self) -> float:
        return next(t for f, _n, t in self.sweep if f == 1.0)


def _fig01_cell(
    payload: int,
    n_cores: int,
    n_operators: int,
    fractions: Tuple[float, ...],
    seed: int,
) -> Fig01Result:
    graph = pipeline(n_operators, cost_flops=100.0, payload_bytes=payload)
    machine = xeon_176().with_cores(n_cores)
    sweep = oracle_sweep(graph, machine, fractions)
    auto = run_multi_level(graph, machine, _config(machine, seed=seed))
    return Fig01Result(
        payload_bytes=payload,
        cores=n_cores,
        sweep=tuple(sweep),
        auto_throughput=auto.throughput,
        auto_fraction=auto.dynamic_ratio,
        auto_threads=auto.threads,
    )


def fig01_motivation(
    payloads: Sequence[int] = (1, 1024),
    cores: Sequence[int] = (16, 88),
    n_operators: int = 100,
    fractions: Sequence[float] = (
        0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0,
    ),
    seed: int = 0,
    parallel: Optional[bool] = None,
) -> List[Fig01Result]:
    """100-operator chain, 100 FLOPs/op: the motivating sweep.

    Cells (one per payload x cores point) are independent and fan out
    across a process pool (see :mod:`repro.runtime.pool`).
    """
    cells = [
        (payload, n_cores, n_operators, tuple(fractions), seed)
        for payload in payloads
        for n_cores in cores
    ]
    return run_cells(_fig01_cell, cells, parallel=parallel)


# ----------------------------------------------------------------------
# Figure 6 — adaptation-period optimizations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig06Result:
    variant: str
    trace: AdaptationTrace
    settling_time_s: float
    converged_throughput: float
    final_threads: int
    final_n_queues: int


def _fig06_graph(n_operators: int, payload: int, seed: int) -> StreamGraph:
    graph = pipeline(n_operators, payload_bytes=payload)
    return assign_costs(
        graph, skewed(), rng=np.random.default_rng(seed)
    )


def fig06_adaptation(
    n_operators: int = 500,
    payload_bytes: int = 1024,
    cores: int = 88,
    duration_s: float = 20_000.0,
    seed: int = 0,
) -> List[Fig06Result]:
    """Four variants: (a) no optimizations, (b) history, (c) history +
    sf=0.6, (d) history + sf=0."""
    graph = _fig06_graph(n_operators, payload_bytes, seed)
    machine = xeon_176().with_cores(cores)
    base = ElasticityConfig()
    variants = [
        ("no-opt", base.without_optimizations()),
        ("history", base.with_history_only()),
        ("history+sf0.6", base.with_satisfaction(0.6)),
        ("history+sf0", base.with_satisfaction(0.0)),
    ]
    results = []
    for name, elasticity in variants:
        config = _config(machine, seed=seed, elasticity=elasticity)
        pe = ProcessingElement(graph, machine, config)
        executor = AdaptationExecutor(pe)
        run = executor.run(duration_s, stop_after_stable_periods=24)
        results.append(
            Fig06Result(
                variant=name,
                trace=run.trace,
                settling_time_s=run.trace.last_change_time(),
                converged_throughput=run.converged_throughput,
                final_threads=run.final_threads,
                final_n_queues=run.final_n_queues,
            )
        )
    return results


# ----------------------------------------------------------------------
# Figure 7 (DES substrate) — the profiled adaptation scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DesAdaptationScenario:
    """One DES-driven adaptation run with its full decision record.

    ``decisions`` is the per-period ``(rule, set_threads, set_n_queues)``
    sequence from the coordinator's Fig. 7 state machine, so a run can
    be checked against a pinned decision log
    (``tests/bench/fig07_des_golden.json``).  ``sim_events`` counts only
    DES kernel events actually executed — measurement memo hits add
    none; ``events_elided`` of them resumed without the event heap.
    """

    wall_s: float
    sim_events: int
    events_elided: int
    final_threads: int
    final_queues: Tuple[int, ...]
    converged_throughput: float
    decisions: Tuple[Tuple[str, Optional[int], Optional[int]], ...]
    cache_hits: int
    cache_misses: int


def fig07_des_adaptation(
    max_periods: int = 160,
    n_operators: int = 8,
    cost_flops: float = 4000.0,
    payload_bytes: int = 128,
    cores: int = 4,
    seed: int = 8,
    warmup_s: float = 0.001,
    measure_s: float = 0.004,
) -> DesAdaptationScenario:
    """Tuple-level adaptation with execution profiling (§3.1 + Fig. 7).

    Runs the multi-level coordinator against the DES engine with the
    profile coming from actual execution: the profiler rides inside
    each measurement run via sampled accounting (§3.1), and repeated
    configurations replay memoized measurement cells.

    The run uses a fixed-length trace (no stable-stop), like the
    paper's Fig. 7 timelines which plot fixed durations.
    """
    from ..des.adaptation import DesAdaptationRunner
    from ..obs.hub import ObservabilityHub
    from . import cache

    graph = pipeline(
        n_operators, cost_flops=cost_flops, payload_bytes=payload_bytes
    )
    machine = laptop(cores)
    hub = ObservabilityHub()
    cache.clear()
    before = cache.stats()
    runner = DesAdaptationRunner(
        graph,
        machine,
        RuntimeConfig(cores=cores, seed=seed),
        warmup_s=warmup_s,
        measure_s=measure_s,
        profile_from_execution=True,
        obs=hub,
    )
    t0 = time.perf_counter()
    result = runner.run(
        max_periods=max_periods, stop_after_stable_periods=None
    )
    wall = time.perf_counter() - t0
    after = cache.stats()
    cache.clear()
    return DesAdaptationScenario(
        wall_s=wall,
        sim_events=runner.sim_events,
        events_elided=runner.events_elided,
        final_threads=result.final_threads,
        final_queues=tuple(sorted(result.final_placement.queued)),
        converged_throughput=result.converged_throughput,
        decisions=tuple(
            (d.rule, d.set_threads, d.set_n_queues)
            for d in hub.decisions()
        ),
        cache_hits=after["hits"] - before["hits"],
        cache_misses=after["misses"] - before["misses"],
    )


# ----------------------------------------------------------------------
# Figures 9-12 — benchmark graph comparisons
# ----------------------------------------------------------------------
def _fig09_cell(
    machine_name: str,
    distribution: CostDistribution,
    n_ops: int,
    payload: int,
    seed: int,
) -> Comparison:
    machine = MACHINES[machine_name]()
    graph = pipeline(n_ops, payload_bytes=payload)
    graph = assign_costs(
        graph, distribution, rng=np.random.default_rng(seed)
    )
    return compare(
        graph,
        machine,
        _config(machine, seed=seed),
        workload=f"pipe({n_ops}) {payload}B",
    )


def fig09_pipeline(
    machine_name: str = "xeon",
    distribution: Optional[CostDistribution] = None,
    operator_counts: Sequence[int] = (100, 500, 1000),
    payloads: Sequence[int] = (128, 1024, 16384),
    seed: int = 0,
    parallel: Optional[bool] = None,
) -> List[Comparison]:
    """Pipeline graphs (Fig. 9): speedups over manual threading."""
    distribution = distribution or balanced(100.0)
    cells = [
        (machine_name, distribution, n_ops, payload, seed)
        for n_ops in operator_counts
        for payload in payloads
    ]
    return run_cells(_fig09_cell, cells, parallel=parallel)


def _fig10_cell(
    machine_name: str,
    width: int,
    payload: int,
    cost_flops: float,
    seed: int,
) -> Comparison:
    machine = MACHINES[machine_name]()
    graph = data_parallel(
        width, cost_flops=cost_flops, payload_bytes=payload
    )
    return compare(
        graph,
        machine,
        _config(machine, seed=seed),
        workload=f"dp({width}) {payload}B",
    )


def fig10_data_parallel(
    machine_name: str = "xeon",
    widths: Sequence[int] = (50, 100),
    payloads: Sequence[int] = (128, 1024, 16384),
    cost_flops: float = 100.0,
    seed: int = 0,
    parallel: Optional[bool] = None,
) -> List[Comparison]:
    """Pure data-parallel graphs (Fig. 10): sink-lock contention."""
    cells = [
        (machine_name, width, payload, cost_flops, seed)
        for width in widths
        for payload in payloads
    ]
    return run_cells(_fig10_cell, cells, parallel=parallel)


def _fig11_cell(
    machine_name: str,
    width: int,
    depth: int,
    payload: int,
    seed: int,
) -> Comparison:
    machine = MACHINES[machine_name]()
    graph = mixed(width, depth, payload_bytes=payload)
    return compare(
        graph,
        machine,
        _config(machine, seed=seed),
        workload=f"mixed({width}x{depth}) {payload}B",
    )


def fig11_mixed(
    machine_name: str = "xeon",
    depths: Sequence[int] = (50, 100),
    payloads: Sequence[int] = (128, 1024, 16384),
    width: int = 10,
    seed: int = 0,
    parallel: Optional[bool] = None,
) -> List[Comparison]:
    """Mixed pipeline/data-parallel graphs (Fig. 11)."""
    cells = [
        (machine_name, width, depth, payload, seed)
        for depth in depths
        for payload in payloads
    ]
    return run_cells(_fig11_cell, cells, parallel=parallel)


def _fig12_cell(
    n_cores: int, cost: float, payload_bytes: int, seed: int
) -> Comparison:
    machine = xeon_176().with_cores(n_cores)
    graph = bushy_82(cost_flops=cost, payload_bytes=payload_bytes)
    return compare(
        graph,
        machine,
        _config(machine, seed=seed),
        workload=f"bushy82 {n_cores}c {cost:g}F",
    )


def fig12_bushy(
    cores: Sequence[int] = (16, 88),
    costs: Sequence[float] = (1.0, 100.0, 10_000.0),
    payload_bytes: int = 1024,
    seed: int = 0,
    parallel: Optional[bool] = None,
) -> List[Comparison]:
    """Bushy graphs (Fig. 12): 82 operators, varying cores and cost."""
    cells = [
        (n_cores, cost, payload_bytes, seed)
        for n_cores in cores
        for cost in costs
    ]
    return run_cells(_fig12_cell, cells, parallel=parallel)


# ----------------------------------------------------------------------
# Figure 13 — adaptation to workload phase change
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig13Result:
    trace: AdaptationTrace
    change_time_s: float
    re_settling_time_s: float
    threads_before: int
    threads_after: int
    queues_before: int
    queues_after: int
    throughput_before: float
    throughput_after: float


def fig13_phase_change(
    n_operators: int = 100,
    cores: int = 88,
    change_time_s: float = 1200.0,
    total_duration_s: float = 4000.0,
    payload_bytes: int = 1024,
    seed: int = 0,
) -> Fig13Result:
    """Heavy ratio 10 % -> 90 % mid-run; measure re-adaptation."""
    workload = phase_change(
        n_operators=n_operators,
        change_time_s=change_time_s,
        payload_bytes=payload_bytes,
        seed=seed,
    )
    machine = xeon_176().with_cores(cores)
    config = _config(machine, seed=seed)
    pe = ProcessingElement(workload.initial, machine, config)
    executor = AdaptationExecutor(pe, workload_events=workload.events())
    run = executor.run(total_duration_s)
    trace = run.trace

    before = [o for o in trace.observations if o.time_s < change_time_s]
    after = [o for o in trace.observations if o.time_s >= change_time_s]
    changes_after = [
        c.time_s
        for c in trace.thread_changes + trace.placement_changes
        if c.time_s >= change_time_s
    ]
    re_settle = (max(changes_after) - change_time_s) if changes_after else 0.0
    return Fig13Result(
        trace=trace,
        change_time_s=change_time_s,
        re_settling_time_s=re_settle,
        threads_before=before[-1].threads if before else 0,
        threads_after=after[-1].threads if after else 0,
        queues_before=before[-1].n_queues if before else 0,
        queues_after=after[-1].n_queues if after else 0,
        throughput_before=(
            left_sum(o.true_throughput for o in before[-8:])
            / len(before[-8:])
            if before
            else 0.0
        ),
        throughput_after=(
            left_sum(o.true_throughput for o in after[-8:])
            / len(after[-8:])
            if after
            else 0.0
        ),
    )


# ----------------------------------------------------------------------
# Figure 15 — applications
# ----------------------------------------------------------------------
def fig15a_vwap(
    cores: Sequence[int] = (4, 16, 88), seed: int = 0
) -> List[Comparison]:
    """VWAP on 4/16/88 cores with all four strategies."""
    comparisons = []
    for n_cores in cores:
        machine = xeon_176().with_cores(n_cores)
        graph = build_vwap()
        hand = vwap_hand_optimized(graph)
        comparisons.append(
            compare(
                graph,
                machine,
                _config(machine, seed=seed),
                hand=hand,
                workload=f"VWAP {n_cores}c",
            )
        )
    return comparisons


def fig15b_packet_analysis(
    source_counts: Sequence[int] = (1, 8), seed: int = 0
) -> List[Comparison]:
    """PacketAnalysis with 1 and 8 DPDK sources on the Xeon system."""
    machine = xeon_176()
    comparisons = []
    for n_sources in source_counts:
        graph = build_packet_analysis(n_sources)
        hand = packet_hand_optimized(graph)
        comparisons.append(
            compare(
                graph,
                machine,
                _config(machine, seed=seed),
                hand=hand,
                workload=f"PacketAnalysis {n_sources}src",
            )
        )
    return comparisons


# ----------------------------------------------------------------------
# §3.1.1 — adaptation period / SENS robustness, and SASO
# ----------------------------------------------------------------------
def sec311_period_sweep(
    periods_s: Sequence[float] = (5.0, 10.0, 20.0, 30.0),
    n_operators: int = 100,
    cores: int = 88,
    payload_bytes: int = 1024,
    seed: int = 0,
) -> Dict[float, float]:
    """Converged throughput under different adaptation periods.

    The paper: periods of 5-30 s show no significant performance impact.
    """
    machine = xeon_176().with_cores(cores)
    graph = pipeline(n_operators, payload_bytes=payload_bytes)
    out: Dict[float, float] = {}
    for period in periods_s:
        elasticity = ElasticityConfig(adaptation_period_s=period)
        result = run_multi_level(
            graph,
            machine,
            _config(machine, seed=seed, elasticity=elasticity),
        )
        out[period] = result.throughput
    return out


def saso_analysis(
    n_operators: int = 500,
    payload_bytes: int = 1024,
    cores: int = 88,
    seed: int = 0,
) -> Tuple[SasoReport, AdaptationTrace]:
    """SASO report for a multi-level run against the oracle reference."""
    graph = _fig06_graph(n_operators, payload_bytes, seed)
    machine = xeon_176().with_cores(cores)
    result = run_multi_level(graph, machine, _config(machine, seed=seed))
    assert result.trace is not None
    reference = max(
        t
        for _f, _n, t in oracle_sweep(
            graph, machine, fractions=(0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0)
        )
    )
    report = analyze(result.trace, reference_throughput=reference)
    return report, result.trace


def scenario_bench(
    name: str,
    backend: Optional[str] = None,
    scenario_dir: Optional[str] = None,
):
    """Run a named zoo scenario and return its per-backend results.

    The bench-level entry point behind ``repro bench --scenario X``:
    resolves ``name`` against the scenario zoo (or takes a file path),
    compiles it and runs the adaptation loop on the requested
    backend(s).  Returns a tuple of
    :class:`~repro.scenarios.run.ScenarioRunResult`.
    """
    from ..scenarios import find_scenario, load_compiled, run_scenario

    path = find_scenario(name, scenario_dir)
    compiled = load_compiled(path)
    return run_scenario(compiled, backend=backend)
