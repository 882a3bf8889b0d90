#!/usr/bin/env python3
"""Benchmark of the elastic adaptation loop, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload single-pe-adapt --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it traced (plus the paired untraced runs
behind the overhead and pool-speedup ratios) and prints the per-layer
metrics.  Every line but the last is for people; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
OUT_DIR = HERE / "out"
SETUP_REPS = 5


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="all: every workload, untraced then traced, one after another",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a few periods per run, for the smoke test",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--size", args.size,
            ]
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def _probe_init(worker_id):
    return worker_id


def setup_probe(args) -> int:
    """Child process of ``setup_s``: import, load, compile, start pool."""
    from workloads import WORKLOADS, compile_cases, generate

    workload = WORKLOADS[args.workload]
    compile_cases(
        generate(workload, args.seed, SCENARIO_DIR, args.size == "tiny")
    )
    pool = None
    if workload.jobs > 1:
        from repro.runtime.pool import WorkerPool

        pool = WorkerPool(workload.jobs, _probe_init)
    print("ready", flush=True)
    if pool is not None:
        pool.close()
    return 0


def measure_setup(args, reps: int, probe) -> float:
    """Median time from spawning a fresh interpreter to ready, in
    seconds at the reference speed."""
    from measure import median

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size,
    ]
    times = []
    before = probe.sample()
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        speed, before = probe.bracket(before)
        times.append(elapsed * speed)
    return median(times)


def scale_to_reference(values: dict, speed: float) -> dict:
    """Express per-layer host times (and rates) at the reference speed."""
    from metrics import PER_LAYER

    out = {}
    for name, value in values.items():
        unit = PER_LAYER[name].unit
        if unit in ("s", "ms", "us"):
            value *= speed
        elif unit == "1/s":
            value /= speed
        out[name] = value
    return out


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (a pool
    worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
def check_pass(workload, cases, probe):
    """One run per scenario at pool width 1 before anything is timed.

    It warms lazy state, flags deadlocked engine runs, and gives the
    decision logs the later runs of those cases must reproduce.
    """
    from measure import run_iteration
    from tracing import DeadlockWatch
    from workloads import warmup_cases

    watch = DeadlockWatch()
    watch.install()
    try:
        return run_iteration(
            warmup_cases(cases), workload.backend, 1, watch=watch,
            probe=probe,
        )
    finally:
        watch.remove()


def untraced(args, workload, cases, probe) -> dict:
    """Timed iterations with tracing off, then checks, then setup."""
    from measure import (
        check_iterations, iteration_wall, run_iteration, simulated_metrics,
    )
    from workloads import DROP_RULES

    check = check_pass(workload, cases, probe)
    timed = []
    start = time.perf_counter()
    while len(timed) < 2 or time.perf_counter() - start < args.seconds:
        timed.append(
            run_iteration(cases, workload.backend, workload.jobs, probe=probe)
        )
    rss = peak_rss_mb()

    failures = check_iterations(timed[0], timed[1:] + [check], DROP_RULES)
    sim = simulated_metrics(timed[0])
    attempted = len(check.runs) + sum(len(it.runs) for it in timed)
    wall = iteration_wall(timed)
    values = {
        "setup_s": measure_setup(
            args, SETUP_REPS if args.size == "full" else 2, probe
        ),
        "wall_s": wall,
        "periods_per_s": timed[0].periods / wall,
        "peak_rss_mb": rss,
        "converged_throughput": sim["converged_throughput"],
        "settling_periods": sim["settling_periods"],
        "admitted_share": sim["admitted_share"],
    }
    info = {
        "iteration_walls_host_s": [it.wall_s for it in timed],
        "runs_per_iteration": len(cases),
        "failed_share": len(failures) / attempted,
        "dropped_share": sim["dropped_share"],
    }
    return {"values": values, "info": info, "failures": failures,
            "attempted": attempted}


def traced(args, workload, cases, compile_s, probe) -> dict:
    """One traced iteration (two for pooled workloads) plus the paired
    untraced iterations behind the overhead and speedup ratios."""
    from measure import (
        check_iterations, median, percentile, run_iteration,
    )
    from tracing import POOL_TARGETS, SPAN_TARGETS, DeadlockWatch, Tracer
    from workloads import DROP_RULES

    backend, jobs = workload.backend, workload.jobs
    pooled = jobs > 1

    check = check_pass(workload, cases, probe)

    # Fully traced, in process (pool width 1), with deadlock watch.
    tracer = Tracer()
    tracer.install(SPAN_TARGETS)
    watch = DeadlockWatch()
    watch.install()
    try:
        traced_it = run_iteration(cases, backend, 1, watch=watch, probe=probe)
    finally:
        watch.remove()
        tracer.remove()

    pool_tracer = Tracer()
    pool_it = None
    if pooled:
        pool_tracer.install(POOL_TARGETS, count_incs=False)
        try:
            pool_it = run_iteration(cases, backend, jobs, probe=probe)
        finally:
            pool_tracer.remove()

    # Paired untraced runs, alternating order round by round.
    plan = [("hub", jobs), ("null", jobs)] + ([("hub", 1)] if pooled else [])
    walls = {key: [] for key in plan}
    paired = []
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < args.seconds:
        for key in plan if rounds % 2 == 0 else plan[::-1]:
            it = run_iteration(
                cases, backend, key[1], attached=key[0] == "hub", probe=probe
            )
            walls[key].append(it.ref_wall_s)
            paired.append(it)
        rounds += 1

    others = [check, traced_it] + ([pool_it] if pool_it else []) + paired[1:]
    failures = check_iterations(paired[0], others, DROP_RULES)
    attempted = sum(len(it.runs) for it in [paired[0], *others])

    hub_j1 = median(walls[("hub", 1)] if pooled else walls[("hub", jobs)])
    v = {}
    v["scenarios.compile_s"] = compile_s

    runs = traced_it.runs
    hits = sum(r.cache_hits for r in runs)
    lookups = hits + sum(r.cache_misses for r in runs)
    v["bench.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    v["bench.cache.lookup_us_p50"] = 1e6 * percentile(
        tracer.durations("cache.lookup"), 50
    )
    v["bench.cache.key_s"] = sum(
        sum(tracer.durations(f"cache.{kind}_fingerprint"))
        for kind in ("graph", "config", "machine")
    )

    measures = tracer.durations("DesAdaptationRunner.measure")
    v["des.adaptation.measure_calls"] = len(measures)
    v["des.adaptation.measure_ms_p50"] = 1e3 * percentile(measures, 50)
    v["des.adaptation.measure_ms_p90"] = 1e3 * percentile(measures, 90)

    engine_s = sum(tracer.durations("DesEngine.run"))
    engine = [d for d in tracer.data("DesEngine.run") if d is not None]
    events = sum(d[0] for d in engine)
    sink = sum(d[1] for d in engine)
    v["des.engine.runs"] = len(engine)
    v["des.engine.run_s"] = engine_s
    v["des.engine.sink_tuples_per_s_wall"] = sink / engine_s if engine_s else 0.0
    v["des.kernel.events"] = events
    v["des.kernel.events_per_s"] = events / engine_s if engine_s else 0.0
    v["des.kernel.events_per_tuple"] = events / sink if sink else 0.0
    v["des.fastforward.events_saved"] = sum(r.ff_events_saved for r in runs)

    steps = tracer.durations("MultiLevelCoordinator.step")
    v["core.coordinator.steps"] = len(steps)
    v["core.coordinator.step_us_p50"] = 1e6 * percentile(steps, 50)

    v["perfmodel.sink_throughput_us_p50"] = 1e6 * percentile(
        tracer.durations("PerformanceModel.sink_throughput"), 50
    )
    v["perfmodel.estimate_calls"] = len(
        tracer.durations("PerformanceModel.estimate")
    )
    v["perfmodel.decomposition_s"] = sum(
        tracer.durations("PerformanceModel.decomposition")
    )
    selfs = tracer.self_times()
    v["runtime.executor.loop_s"] = selfs.get("runtime.executor", 0.0)

    job_steps_j1 = tracer.durations("JobAdaptationRunner.step_period")
    job_steps = pool_tracer.durations("JobAdaptationRunner.step_period")
    v["job.executor.step_period_ms_p50"] = 1e3 * percentile(job_steps, 50)
    v["job.executor.step_period_ms_p90"] = 1e3 * percentile(job_steps, 90)
    v["job.executor.pe_measures_per_period"] = (
        len(measures) / len(job_steps_j1) if job_steps_j1 else 0.0
    )

    v["runtime.pool.wait_s"] = sum(
        pool_tracer.durations("JobWorkerSession.collect_step")
    )
    v["runtime.pool.submit_us_p50"] = 1e6 * percentile(
        pool_tracer.durations("JobWorkerSession.submit_step"), 50
    )
    report_bytes = sum(pool_tracer.data("JobWorkerSession.collect_step"))
    v["runtime.pool.report_bytes_per_period"] = (
        report_bytes / len(job_steps) if job_steps else 0.0
    )
    v["runtime.pool.speedup"] = (
        hub_j1 / median(walls[("hub", jobs)]) if pooled else 1.0
    )

    v["obs.counter_incs"] = tracer.counter_incs
    v["obs.attached_overhead"] = (
        median(walls[("hub", jobs)]) / median(walls[("null", jobs)]) - 1.0
    )
    v["trace.overhead"] = traced_it.ref_wall_s / hub_j1 - 1.0
    v["trace.accounted_share"] = tracer.root_time() / traced_it.wall_s

    from tracing import LAYERS

    pool_selfs = pool_tracer.self_times()
    for layer in LAYERS:
        src = pool_selfs if layer == "runtime.pool" else selfs
        v[f"{layer}.self_s"] = src.get(layer, 0.0)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"trace-{args.workload}-{args.seed}"
    tracer.write(OUT_DIR / f"{stem}.jsonl")
    if pooled:
        pool_tracer.write(OUT_DIR / f"{stem}-pool.jsonl")

    info = {
        "traced_wall_ref_s": traced_it.ref_wall_s,
        "untraced_wall_ref_s": hub_j1,
        "paired_rounds": rounds,
        "spans": len(tracer.spans) + len(pool_tracer.spans),
        "failed_share": len(failures) / attempted,
    }
    return {"values": scale_to_reference(v, probe.factor()), "info": info,
            "failures": failures, "attempted": attempted}


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not SCENARIO_DIR.is_dir():
        print(
            f"perfbench: no repro source tree or scenarios/ under {ROOT}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    from measure import SpeedProbe, pin_environment

    env = pin_environment()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)

    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, compile_cases, generate

    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    cases = compile_cases(
        generate(workload, args.seed, SCENARIO_DIR, args.size == "tiny")
    )
    compile_s = time.perf_counter() - t0

    probe = SpeedProbe()
    if args.trace:
        out = traced(args, workload, cases, compile_s, probe)
        table = PER_LAYER
    else:
        out = untraced(args, workload, cases, probe)
        table = END_TO_END
    out["info"]["speed_factor"] = probe.factor()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for key, value in out["info"].items():
        if isinstance(value, list):
            value = " ".join(f"{x:.4g}" for x in value)
        else:
            value = f"{value:.6g}"
        print(f"  {key:<40} {value}")
    for message in out["failures"].values():
        print(f"FAILED {message}")
    metrics = {}
    for name, meta in table.items():
        value = float(out["values"][name])
        metrics[name] = {"value": value, "unit": meta.unit}
        print(f"  {name:<40} {value:14.6g} {meta.unit}")
    failed = len(out["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
