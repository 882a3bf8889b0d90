"""Every metric the benchmark reports: unit, direction, and for each
per-layer metric the end-to-end metric (and workload) it should move.

``BENCHMARK.json`` lists the same names, units and directions; the
smoke test keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from tracing import LAYERS


class Metric(NamedTuple):
    unit: str
    better: str
    # Per-layer metrics: which end-to-end metric it should move, where.
    moves: str = ""


END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower"),
    "wall_s": Metric("s", "lower"),
    "periods_per_s": Metric("1/s", "higher"),
    "peak_rss_mb": Metric("MB", "lower"),
    "converged_throughput": Metric("tuples/s", "higher"),
    "settling_periods": Metric("periods", "lower"),
    "admitted_share": Metric("ratio", "higher"),
}

_SELF = "wall_s where the layer's self time is large"

PER_LAYER: Dict[str, Metric] = {
    "scenarios.compile_s": Metric("s", "lower", "setup_s on every workload"),
    "bench.cache.hit_ratio": Metric(
        "ratio", "higher",
        "periods_per_s on single-pe-adapt and multi-pe-job; not open-loop-burst",
    ),
    "bench.cache.lookup_us_p50": Metric(
        "us", "lower", "periods_per_s on single-pe-adapt and multi-pe-job"
    ),
    "bench.cache.key_s": Metric(
        "s", "lower", "periods_per_s on single-pe-adapt and multi-pe-job"
    ),
    "des.adaptation.measure_calls": Metric(
        "count", "lower", "periods_per_s on the three DES workloads"
    ),
    "des.adaptation.measure_ms_p50": Metric(
        "ms", "lower", "periods_per_s on the three DES workloads"
    ),
    "des.adaptation.measure_ms_p90": Metric(
        "ms", "lower", "periods_per_s on the three DES workloads"
    ),
    "des.engine.runs": Metric(
        "count", "lower", "wall_s on the DES workloads; not perfmodel-wide"
    ),
    "des.engine.run_s": Metric(
        "s", "lower", "wall_s on the DES workloads; not perfmodel-wide"
    ),
    "des.engine.sink_tuples_per_s_wall": Metric(
        "1/s", "higher", "wall_s on the DES workloads; not perfmodel-wide"
    ),
    "des.kernel.events": Metric(
        "count", "lower", "periods_per_s on multi-pe-job and single-pe-adapt"
    ),
    "des.kernel.events_per_s": Metric(
        "1/s", "higher", "periods_per_s on multi-pe-job and single-pe-adapt"
    ),
    "des.kernel.events_per_tuple": Metric(
        "ratio", "lower", "periods_per_s on multi-pe-job and single-pe-adapt"
    ),
    "des.fastforward.events_saved": Metric(
        "count", "higher", "periods_per_s on multi-pe-job (0 today)"
    ),
    "core.coordinator.steps": Metric(
        "count", "lower", "periods_per_s on perfmodel-wide"
    ),
    "core.coordinator.step_us_p50": Metric(
        "us", "lower", "periods_per_s on perfmodel-wide"
    ),
    "perfmodel.sink_throughput_us_p50": Metric(
        "us", "lower", "periods_per_s on perfmodel-wide"
    ),
    "perfmodel.estimate_calls": Metric(
        "count", "lower", "periods_per_s on perfmodel-wide"
    ),
    "perfmodel.decomposition_s": Metric(
        "s", "lower", "periods_per_s on perfmodel-wide"
    ),
    "runtime.executor.loop_s": Metric(
        "s", "lower", "periods_per_s on perfmodel-wide"
    ),
    "job.executor.step_period_ms_p50": Metric(
        "ms", "lower", "periods_per_s on multi-pe-job"
    ),
    "job.executor.step_period_ms_p90": Metric(
        "ms", "lower", "periods_per_s on multi-pe-job"
    ),
    "job.executor.pe_measures_per_period": Metric(
        "ratio", "lower", "periods_per_s on multi-pe-job"
    ),
    "runtime.pool.wait_s": Metric("s", "lower", "wall_s on multi-pe-job"),
    "runtime.pool.submit_us_p50": Metric("us", "lower", "wall_s on multi-pe-job"),
    "runtime.pool.report_bytes_per_period": Metric(
        "B", "lower", "wall_s on multi-pe-job"
    ),
    "runtime.pool.speedup": Metric("ratio", "higher", "wall_s on multi-pe-job"),
    "obs.counter_incs": Metric(
        "count", "lower", "wall_s on multi-pe-job; about 0 on single-pe-adapt"
    ),
    "obs.attached_overhead": Metric(
        "ratio", "lower", "wall_s on multi-pe-job; about 0 on single-pe-adapt"
    ),
    "trace.overhead": Metric("ratio", "lower", "none: the cost of tracing"),
    "trace.accounted_share": Metric(
        "ratio", "higher", "none: share of traced wall the spans cover"
    ),
}

# Per-layer self time: from the fully traced run, and for the pool
# from the pool-only traced run.
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = Metric("s", "lower", _SELF)
