"""Multi-PE job executor benchmark: replica sweep into a locked sink.

The data-parallel scaling claim of the job layer, measured on the
tuple-level DES: a heavy worker PE replicated 1..8 ways behind a
shuffle channel, feeding a lock-serialized sink PE.  Throughput must
grow monotonically with the replica count until the sink channel
saturates, then plateau -- the cross-PE analogue of the paper's
Fig. 8(b) locked-merge ceiling.

Besides the modeled curve, this file tracks *simulator* performance
on the job path: every replica point records its wall time and the
``sink_tuples_per_s_wall`` / ``_wall_per_core`` rates (see
``bench.reporting.throughput_rates``), and the whole sweep is held to
``JOB_WALL_SPEEDUP_FLOOR`` against the pinned PR-8 sequential
baseline (the same convention as ``test_des_kernel.py``).  A live run
with the vectorized locked-region path disabled is also taken, both
to isolate that path's share of the win and to pin the modeled curve
against per-tuple lock execution.  CI perf-smoke runs this file with
``REPRO_JOB_WORKERS=2``, but the sweep's job is a shuffle chain whose
channel-topology waves are each one PE wide, so the executor starts
no worker pool and the sweep runs in-process at that width too: the
floor gates the sequential job path.  The pool path is covered by
``tests/job/test_parallel_executor.py`` and CI's
``fig07-2pe-passthrough --jobs 2`` zoo run.

Emits the ``multi_pe`` section of ``benchmarks/results/BENCH_des.json``
(CI perf-smoke runs this file, so the sweep is tracked per PR).
"""

from __future__ import annotations

import time

from _bench_util import record, record_json, run_once

from repro.bench import cache
from repro.bench.reporting import throughput_rates
from repro.des import engine as des_engine
from repro.graph.builder import GraphBuilder
from repro.job.executor import JobAdaptationRunner
from repro.job.graph import build_job_graph
from repro.perfmodel.machine import laptop
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import job_workers
from repro.scenarios.schema import (
    PartitionSpec,
    PartitionStrategy,
    PeSpec,
)

REPLICAS = (1, 2, 4, 6, 8)
CORES = 4
SEED = 21
MAX_PERIODS = 10
MEASURE_S = 0.004

# PR-8 executor (per-tuple locked regions, burst-ineligible open-loop
# sources, jobs=1) on this exact sweep, profiled on the reference box.
# Kept as the "before" of the vectorized locked path + busy-source
# burst lookahead; the floor below is what CI enforces, since
# absolute wall times vary across boxes.
BASELINE = {
    "wall_s": 18.13,
    "replica_sweep_tuples_per_s": {
        "1": 640625.0,
        "2": 1257000.0,
        "4": 2274625.0,
        "6": 2286875.0,
        "8": 2286875.0,
    },
}

# CI perf gate, the job-path analogue of test_des_kernel's
# WALL_SPEEDUP_FLOOR: the vectorized locked-region path and the
# open-loop burst lookahead must keep the sweep at least this many
# times faster than the PR-8 executor's reference wall time (the
# chain starts no worker pool at any REPRO_JOB_WORKERS).
# The reference box measures ~7x; 3x leaves headroom for slow CI
# machines while still failing loudly if the job path regresses back
# toward per-tuple execution.
JOB_WALL_SPEEDUP_FLOOR = 3.0


def _build_job(reps):
    b = GraphBuilder()
    src = b.add_source("src", cost_flops=50.0)
    work = b.add_operator("work", cost_flops=6000.0)
    snk = b.add_sink("snk", cost_flops=1500.0)
    b.chain(src, work, snk)
    pes = (
        PeSpec(name="ingest", operators=("src",)),
        PeSpec(name="worker", operators=("work",), replicas=reps),
        PeSpec(name="sinkpe", operators=("snk",)),
    )
    return build_job_graph(
        b.build(),
        pes,
        PartitionSpec(strategy=PartitionStrategy.SHUFFLE),
    )


def _run_sweep(jobs=1):
    """Converged job throughput and wall cost per replica count."""
    sweep = {}
    for reps in REPLICAS:
        cache.clear()
        runner = JobAdaptationRunner(
            _build_job(reps),
            laptop(CORES),
            RuntimeConfig(seed=SEED),
            warmup_s=0.001,
            measure_s=MEASURE_S,
            jobs=jobs,
        )
        t0 = time.perf_counter()
        result = runner.run(
            max_periods=MAX_PERIODS, stop_after_stable_periods=4
        )
        wall = time.perf_counter() - t0
        obs = result.trace.observations
        sweep[reps] = {
            "converged": result.converged_throughput,
            "wall_s": wall,
            # Simulated sink tuples over the measured windows: the
            # numerator of the wall-clock rates below.
            "sink_tuples": sum(o.throughput for o in obs) * MEASURE_S,
            "sim_s": len(obs) * MEASURE_S,
        }
    return sweep


def _run_locked_off_sweep():
    """The sweep with the vectorized locked path disabled: isolates
    that path's share of the speedup and provides the per-tuple
    reference curve the modeled throughputs are pinned against."""
    prev = des_engine.LOCKED_FAST
    des_engine.LOCKED_FAST = False
    try:
        return _run_sweep(jobs=1)
    finally:
        des_engine.LOCKED_FAST = prev


def test_multi_pe_replica_sweep(benchmark):
    """1..8 worker replicas: monotone throughput, then a sink ceiling;
    the sweep's wall time holds the job-path speedup floor."""
    jobs = job_workers()  # REPRO_JOB_WORKERS; CI perf-smoke passes 2
    locked_off = _run_locked_off_sweep()
    sweep = run_once(benchmark, lambda: _run_sweep(jobs=jobs))

    wall = sum(p["wall_s"] for p in sweep.values())
    locked_off_wall = sum(p["wall_s"] for p in locked_off.values())
    speedup = BASELINE["wall_s"] / wall
    points = {
        str(r): {
            "wall_s": round(p["wall_s"], 4),
            **throughput_rates(
                p["sink_tuples"],
                p["sim_s"],
                p["wall_s"],
                # One process: a chain runs in-process at any jobs.
                cores=1,
            ),
        }
        for r, p in sweep.items()
    }
    record_json(
        "BENCH_des",
        {
            "multi_pe": {
                "scenario": (
                    "src(50) -> work(6000) x R -> snk(1500, locked) | "
                    "shuffle channels | laptop(4 cores) | "
                    f"seed {SEED}"
                ),
                "jobs": jobs,
                "replica_sweep_tuples_per_s": {
                    str(r): round(p["converged"], 1)
                    for r, p in sweep.items()
                },
                "points": points,
                "wall_s": round(wall, 4),
                "baseline_pr8_sequential": BASELINE,
                "locked_fast_off": {
                    "jobs": 1,
                    "wall_s": round(locked_off_wall, 4),
                    "wall_speedup_from_locked_path": round(
                        locked_off_wall / wall, 2
                    ),
                    "replica_sweep_tuples_per_s": {
                        str(r): round(p["converged"], 1)
                        for r, p in locked_off.items()
                    },
                },
                "wall_speedup_vs_baseline": round(speedup, 2),
                "job_wall_speedup_floor": JOB_WALL_SPEEDUP_FLOOR,
            }
        },
        merge=True,
    )
    lines = [
        "Multi-PE replica sweep (shuffle into locked sink)",
        f"  jobs={jobs}  wall {wall:6.2f} s "
        f"(PR-8 executor: {BASELINE['wall_s']:.2f} s, {speedup:.1f}x; "
        f"locked path off: {locked_off_wall:.2f} s)",
    ]
    for r, p in sweep.items():
        lines.append(
            f"  R={r}  {p['converged']:12,.0f} tuples/s   "
            f"wall {p['wall_s']:6.3f} s"
        )
    record("multi_pe_replica_sweep", "\n".join(lines))

    conv = {r: p["converged"] for r, p in sweep.items()}
    rates = [conv[r] for r in REPLICAS]
    # Early scaling is real: doubling the workers from 1 to 2 must
    # pay off close to linearly.
    assert conv[2] > 1.5 * conv[1]
    # Monotone until the ceiling: no replica step may lose throughput
    # beyond measurement jitter.
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= 0.97 * lo, (
            f"throughput regressed along the sweep: {rates}"
        )
    # The sink channel caps the job well below linear scaling: the
    # last doubling (4 -> 8 replicas) must yield almost nothing.
    assert conv[8] < 1.15 * conv[4], (
        f"expected a sink-contention plateau by R=4, got {conv}"
    )
    assert conv[8] < 0.6 * 8 * conv[1]
    # The vectorized path is an optimization, not a model change: the
    # modeled curve must agree with per-tuple lock execution (and with
    # the pinned PR-8 curve) to within the granularity band.
    for r in REPLICAS:
        for label, base in (
            ("locked-fast", locked_off[r]["converged"]),
            ("PR-8", BASELINE["replica_sweep_tuples_per_s"][str(r)]),
        ):
            assert 0.9 * base <= conv[r] <= 1.1 * base, (
                f"{label} drift at R={r}: {conv[r]:,.0f} vs "
                f"baseline {base:,.0f}"
            )
    # CI perf gate: the job path must hold its speedup over the PR-8
    # executor's reference wall time (see the floor's comment).
    assert speedup >= JOB_WALL_SPEEDUP_FLOOR, (
        f"job-path wall speedup dropped to {speedup:.2f}x, below the "
        f"{JOB_WALL_SPEEDUP_FLOOR}x floor (wall {wall:.2f}s vs "
        f"reference {BASELINE['wall_s']:.2f}s)"
    )
