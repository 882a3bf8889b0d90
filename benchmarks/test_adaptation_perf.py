"""Profiled-adaptation microbenchmark: the fast path under profiling.

Times the profiled 8-operator adaptation scenario (§3.1 + Fig. 7 on
the DES substrate): continuous sampled-accounting profiling (the
profiler rides inside every measurement run while the engine keeps its
coalesced fast path) plus measurement memoization.

The run must walk exactly the pinned R1-R5/Fig. 7 decision sequence to
the pinned final ``(threads, placement)`` — the golden fixture
``tests/bench/fig07_des_golden.json`` that tier-1 checks too — so the
throughput can never come from the adaptation quietly behaving
differently.

Emits ``benchmarks/results/BENCH_adaptation.json`` with wall seconds
and kernel events/s, tracked per PR next to ``BENCH_des.json``.
"""

from __future__ import annotations

import json
import pathlib

from _bench_util import record, record_json, run_once

from repro.bench.figures import fig07_des_adaptation

GOLDEN = (
    pathlib.Path(__file__).parent.parent
    / "tests"
    / "bench"
    / "fig07_des_golden.json"
)
MAX_PERIODS = 200

# Deliberately conservative (CI boxes vary); the reference box measures
# ~350k executed events/s.
MIN_EVENTS_PER_S = 50_000.0


def test_profiled_adaptation_fast_path(benchmark):
    golden = json.loads(GOLDEN.read_text())
    assert golden["max_periods"] == MAX_PERIODS
    run = run_once(
        benchmark, lambda: fig07_des_adaptation(max_periods=MAX_PERIODS)
    )
    events_per_s = run.sim_events / run.wall_s

    record_json(
        "BENCH_adaptation",
        {
            "scenario": (
                "pipeline(8 ops, 4000 FLOPs, 128 B) | laptop(4 cores) | "
                f"profile_from_execution | {MAX_PERIODS} periods x "
                "(1 ms warmup + 4 ms measured)"
            ),
            "sampled_memoized": {
                "wall_s": round(run.wall_s, 4),
                "sim_events": run.sim_events,
                "events_elided": run.events_elided,
                "events_per_s": round(events_per_s, 1),
                "final_threads": run.final_threads,
                "final_queues": list(run.final_queues),
                "converged_throughput": round(run.converged_throughput, 1),
                "cache_hits": run.cache_hits,
                "cache_misses": run.cache_misses,
            },
            "n_decisions": len(run.decisions),
        },
    )
    record(
        "adaptation_fast_path",
        "\n".join(
            [
                "Profiled adaptation -- sampled accounting + memoization",
                f"  wall            {run.wall_s:8.3f} s  "
                f"{run.sim_events:10,d} events "
                f"({run.events_elided:,d} elided)",
                f"  events/s        {events_per_s:10,.0f}",
                f"  cache hits      {run.cache_hits}"
                f" / {run.cache_hits + run.cache_misses} lookups",
                f"  final config    threads={run.final_threads} "
                f"queues={list(run.final_queues)}",
            ]
        ),
    )

    # Behavioural identity: the pinned decision path and destination.
    assert [list(d) for d in run.decisions] == golden["decisions"], (
        "profiled adaptation took a different R1-R5 decision sequence "
        "than the golden fixture"
    )
    assert run.final_threads == golden["final_threads"]
    assert list(run.final_queues) == golden["final_queues"]
    # The cache must actually be doing work.
    assert run.cache_hits > 0
    # The kernel must keep resuming unobservable waits in place (the
    # count is deterministic, so this holds on any machine).
    assert run.events_elided > 0
    # Perf floor.
    assert events_per_s >= MIN_EVENTS_PER_S, (
        f"DES throughput regressed: {events_per_s:,.0f} events/s "
        f"is below the {MIN_EVENTS_PER_S:,.0f}/s floor"
    )
