"""DES kernel microbenchmark: the fast-path scenario, tracked per PR.

Times the scenario profiled in the fast-path work — an 8-stage
pipeline (2000 FLOPs/op, 128 B payloads) under ``QueuePlacement.full``
with 8 scheduler threads on the 8-core laptop profile, simulating
12 ms (2 ms warmup + 10 ms measured) — and asserts a conservative
kernel-event throughput floor so a dispatch or parking regression
fails CI loudly rather than silently doubling the suite's wall time.

Also emits ``benchmarks/results/BENCH_des.json``: events/s, wall
seconds per simulated second, the before/after numbers of the
fast-path rewrite, and a representative figure-sweep wall time (each
:class:`~repro.bench.harness.Comparison` now carries ``wall_s``).
"""

from __future__ import annotations

import time

from _bench_util import record, record_json, run_once

from repro.bench.figures import fig10_data_parallel
from repro.bench.reporting import throughput_rates
from repro.des.engine import DesEngine
from repro.graph.topologies import pipeline
from repro.perfmodel.machine import laptop
from repro.runtime.queues import QueuePlacement

WARMUP_S = 0.002
MEASURE_S = 0.010
SIMULATED_S = WARMUP_S + MEASURE_S
CORES = 8

# Seed kernel (per-event closures, isinstance-chain dispatch, 2 µs
# idle busy-poll) on the same scenario and machine profile, min of 5
# runs on the reference box.  Kept as the "before" of the fast-path
# rewrite; the floor below is what CI enforces, since absolute wall
# time does not transfer between machines.
BASELINE = {
    "wall_s": 2.755,
    "events": 1_295_824,
    "events_per_s": 470_354.0,
    "wall_per_sim_s": 229.6,
    "sink_tuples_per_s": 1_264_100.0,
}

# Conservative: the reference box does ~400k events/s after the
# rewrite and did ~470k/s before it, so any machine that ever ran the
# seed suite comfortably clears this unless the kernel regresses.
MIN_EVENTS_PER_S = 100_000.0

# CI gate: the fast-path kernel must stay at least this many times
# faster than the seed kernel's reference wall time.  The reference
# box measures ~14x; 2.5x leaves headroom for slow CI machines while
# still failing loudly if batching or dispatch regresses the kernel
# back toward per-event closures.
WALL_SPEEDUP_FLOOR = 2.5


def _run_profiled_scenario():
    graph = pipeline(8, cost_flops=2000.0, payload_bytes=128)
    engine = DesEngine(
        graph,
        laptop(cores=CORES),
        QueuePlacement.full(graph),
        scheduler_threads=8,
    )
    t0 = time.perf_counter()
    result = engine.run(warmup_s=WARMUP_S, measure_s=MEASURE_S)
    wall = time.perf_counter() - t0
    return engine, result, wall


def test_des_kernel_fast_path(benchmark):
    engine, result, wall = run_once(benchmark, _run_profiled_scenario)
    events = engine.sim.events_processed
    events_per_s = events / wall
    wall_per_sim_s = wall / SIMULATED_S

    # A representative figure sweep, for the per-figure wall-time
    # trajectory (small grid; the full grids run under REPRO_FULL).
    sweep_t0 = time.perf_counter()
    sweep = fig10_data_parallel(widths=(10,), payloads=(128,))
    sweep_wall = time.perf_counter() - sweep_t0

    # Both clock normalizations, explicitly suffixed: *_sim is what
    # the modeled system achieves, *_wall is how fast the simulator
    # itself delivered those tuples (the number this file tracks).
    rates = throughput_rates(
        result.sink_tuples, MEASURE_S, wall, cores=CORES
    )
    current = {
        "wall_s": round(wall, 4),
        "events": events,
        "events_elided": engine.sim.events_elided,
        "events_per_s": round(events_per_s, 1),
        "wall_per_sim_s": round(wall_per_sim_s, 2),
        "sink_tuples_per_s": round(result.sink_tuples_per_s, 1),
        **rates,
    }
    record_json(
        "BENCH_des",
        {
            "scenario": (
                "pipeline(8 ops, 2000 FLOPs, 128 B) | placement=full | "
                "8 scheduler threads | laptop(8 cores) | 12 ms simulated"
            ),
            "baseline_seed_kernel": BASELINE,
            "current": current,
            "wall_speedup_vs_baseline": round(
                BASELINE["wall_s"] / wall, 2
            ),
            "wall_speedup_floor": WALL_SPEEDUP_FLOOR,
            "figure_sweeps": {
                "fig10_data_parallel(widths=(10,), payloads=(128,))": {
                    "wall_s": round(sweep_wall, 4),
                    "per_comparison_wall_s": [
                        round(c.wall_s, 4) for c in sweep
                    ],
                }
            },
        },
    )
    record(
        "des_kernel_fast_path",
        "\n".join(
            [
                "DES kernel fast path -- profiled scenario",
                f"  wall            {wall:8.3f} s "
                f"(seed kernel: {BASELINE['wall_s']:.3f} s, "
                f"{BASELINE['wall_s'] / wall:.1f}x)",
                f"  kernel events   {events:10,d} "
                f"({events_per_s:,.0f} /s)",
                f"  wall per sim-s  {wall_per_sim_s:8.1f} s",
                f"  sink throughput {result.sink_tuples_per_s:12,.0f} /s",
            ]
        ),
    )

    assert not result.deadlocked
    assert events_per_s >= MIN_EVENTS_PER_S, (
        f"kernel regressed: {events_per_s:,.0f} events/s is below the "
        f"{MIN_EVENTS_PER_S:,.0f}/s floor"
    )
    # CI perf gate: the fast path must hold its speedup over the seed
    # kernel's reference wall time.  perf-smoke runs this test, so a
    # regression below the floor fails the workflow.
    speedup = BASELINE["wall_s"] / wall
    assert speedup >= WALL_SPEEDUP_FLOOR, (
        f"wall speedup vs seed kernel dropped to {speedup:.2f}x, below "
        f"the pinned {WALL_SPEEDUP_FLOOR}x floor"
    )
    # The rewrite must not change what the DES *measures*: sink
    # throughput stays within a band of the seed kernel's measurement.
    assert (
        0.8 * BASELINE["sink_tuples_per_s"]
        <= result.sink_tuples_per_s
        <= 1.25 * BASELINE["sink_tuples_per_s"]
    )
