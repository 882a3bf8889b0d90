"""Run workload iterations through the public scenario entry point.

Every adaptation run goes through ``repro.scenarios.run_scenario``
with a fresh ``ObservabilityHub`` (or a ``NullHub`` for the detached
half of the observability pair), after ``repro.bench.cache.clear()``
so no run is served from an earlier run's memo cells.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# Pinned for every run: memo on (in memory only), no phase store, no
# warm start, and no fan-out other than the pool width passed in.
ENV_PINS = {
    "REPRO_MEMO": "1",
    "REPRO_MEMO_DIR": "",
    "REPRO_WARM_START": "off",
    "REPRO_JOB_WORKERS": "1",
    "REPRO_PARALLEL": "0",
}


def pin_environment() -> Dict[str, str]:
    os.environ.update(ENV_PINS)
    return dict(ENV_PINS)


# Host speed drifts by tens of percent over minutes on shared machines,
# and the drift is close to one factor for all interpreted code: block
# medians of a fixed arithmetic loop and of the DES runs between them
# correlate at 0.9 or more.  So the loop is timed between adaptation
# runs, and a run's host time is scaled by REFERENCE_S over the mean of
# the loop times just before and just after it: times are reported in
# seconds at the reference speed.
# REFERENCE_S is about the loop's time on a 2-vCPU Intel Xeon VM.
CALIBRATION_STEPS = 300_000
REFERENCE_S = 0.025


def _calibration_kernel(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


class SpeedProbe:
    """Samples host speed with the calibration kernel."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns its host time."""
        t0 = time.perf_counter()
        _calibration_kernel(CALIBRATION_STEPS)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def bracket(self, before: float) -> Tuple[float, float]:
        """Sample after a timed section that ``before`` preceded.

        Returns the section's host-to-reference multiplier and this
        sample, which is the next section's ``before``.
        """
        after = self.sample()
        return 2.0 * REFERENCE_S / (before + after), after

    def factor(self) -> float:
        """Host-to-reference multiplier over every sample so far."""
        return REFERENCE_S / median(self.samples) if self.samples else 1.0


@dataclass
class RunRecord:
    """Outcome of one adaptation run."""

    label: str
    scenario: str
    wall_s: float
    # Host-to-reference multiplier measured around the run.
    speed: float = 1.0
    periods: int = 0
    converged_throughput: float = 0.0
    settling_period: int = 0
    open_loop: bool = False
    offered_tuples: float = 0.0
    dropped_tuples: float = 0.0
    ff_events_saved: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    log: bytes = b""
    error: Optional[str] = None

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed


def _counter_sum(hub, name: str) -> float:
    """Sum a counter over every PE scope (``pe.<x>.<name>``)."""
    suffix = "." + name
    return sum(
        float(m.value)
        for m in hub.registry
        if m.kind == "counter" and (m.name == name or m.name.endswith(suffix))
    )


def settling_period(decisions) -> int:
    """1-based period of the last configuration change, over all scopes.

    A decision changes the configuration when it sets a thread count or
    queue count other than the one its scope last set.  Decisions carry
    their hub period where the substrate ticks the hub; otherwise the
    period is the decision's position in its scope (one per period).
    """
    last_set: Dict[tuple, int] = {}
    index: Dict[str, int] = {}
    settled = 0
    for d in decisions:
        index[d.scope] = index.get(d.scope, 0) + 1
        period = d.period + 1 if d.period >= 0 else index[d.scope]
        for field, value in (
            ("threads", d.set_threads),
            ("queues", d.set_n_queues),
        ):
            key = (d.scope, field)
            if value is not None and last_set.get(key) != value:
                last_set[key] = value
                settled = max(settled, period)
    return settled


def decision_log(decisions) -> bytes:
    """Canonical bytes of a decision log, for byte-identity checks."""
    return json.dumps(
        [dataclasses.asdict(d) for d in decisions], sort_keys=True
    ).encode()


def run_case(
    case, backend: Optional[str], jobs: int, attached: bool = True, watch=None
):
    """Run one case once; exceptions and deadlocks become ``error``.

    ``watch`` (a :class:`~tracing.DeadlockWatch`) sees engine runs in
    this process, so pass it with ``jobs=1``; a deadlock
    ``RuntimeWarning`` counts whoever emits it.
    """
    from repro.bench import cache
    from repro.obs import NullHub, ObservabilityHub
    from repro.scenarios import run_scenario

    cache.clear()
    hub = ObservabilityHub() if attached else NullHub()
    error = None
    result = None
    wedged = watch.deadlocks if watch is not None else 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        try:
            result = run_scenario(
                case.compiled, backend=backend, obs=hub, jobs=jobs
            )[0]
        except Exception:  # a failed run is counted, not fatal
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    for w in caught:
        if "deadlock" in str(w.message).lower():
            error = error or f"deadlock warning: {w.message}"
    if watch is not None and watch.deadlocks > wedged:
        error = error or f"{watch.deadlocks - wedged} engine run(s) deadlocked"
    rec = RunRecord(label=case.label, scenario=case.scenario, wall_s=wall)
    rec.error = error
    if result is None:
        return rec
    stats = cache.stats()
    rec.periods = result.periods
    rec.converged_throughput = result.converged_throughput
    rec.open_loop = result.open_loop
    rec.cache_hits = stats["hits"]
    rec.cache_misses = stats["misses"]
    if attached:
        decisions = hub.decisions()
        rec.settling_period = settling_period(decisions)
        rec.log = decision_log(decisions)
        rec.offered_tuples = _counter_sum(hub, "des.offered_tuples")
        rec.dropped_tuples = _counter_sum(hub, "des.dropped_tuples")
        rec.ff_events_saved = _counter_sum(
            hub, "des.analytic_fastforward_events_saved"
        )
    return rec


@dataclass
class Iteration:
    runs: List[RunRecord]

    @property
    def wall_s(self) -> float:
        """Host time of the iteration's adaptation runs."""
        return sum(r.wall_s for r in self.runs)

    @property
    def ref_wall_s(self) -> float:
        """The same, in seconds at the reference speed."""
        return sum(r.ref_wall_s for r in self.runs)

    @property
    def periods(self) -> int:
        return sum(r.periods for r in self.runs)


def iteration_wall(iterations: Sequence[Iteration]) -> float:
    """Reference time of one iteration: the sum over its runs of each
    run's median across ``iterations``, which keeps a burst of machine
    noise inside one run from moving the whole figure."""
    return sum(
        median([it.runs[i].ref_wall_s for it in iterations])
        for i in range(len(iterations[0].runs))
    )


def run_iteration(
    cases, backend: Optional[str], jobs: int, attached: bool = True,
    watch=None, probe: Optional[SpeedProbe] = None,
) -> Iteration:
    runs = []
    before = probe.sample() if probe is not None else 0.0
    for case in cases:
        run = run_case(case, backend, jobs, attached, watch)
        if probe is not None:
            run.speed, before = probe.bracket(before)
        runs.append(run)
    return Iteration(runs=runs)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def simulated_metrics(it: Iteration) -> Dict[str, float]:
    """The deterministic metrics of one iteration (hub attached)."""
    runs = it.runs
    open_runs = [r for r in runs if r.open_loop]
    offered = sum(r.offered_tuples for r in open_runs)
    dropped = sum(r.dropped_tuples for r in open_runs)
    return {
        "converged_throughput": statistics.fmean(
            r.converged_throughput for r in runs
        ),
        "settling_periods": statistics.fmean(
            r.settling_period for r in runs
        ),
        "admitted_share": 1.0 - dropped / offered if offered > 0 else 1.0,
        "dropped_share": dropped / offered if offered > 0 else 0.0,
    }


def check_iterations(
    reference: Iteration, others: Sequence[Iteration], rules: Dict
) -> Dict[int, str]:
    """Output checks, as ``{id(run): message}`` for every failed run.

    - every run finished without raising or deadlocking;
    - its converged throughput is positive;
    - every rerun's decision log is byte-identical to the reference
      run of the same case (which also compares pool width 1 with 2
      when the two differ);
    - scenarios in ``rules["drops"]`` dropped tuples, those in
      ``rules["no_drops"]`` dropped none.
    """
    failures: Dict[int, str] = {}

    def fail(run: RunRecord, message: str) -> None:
        failures.setdefault(id(run), f"{run.label}: {message}")

    for it in (reference, *others):
        for run in it.runs:
            if run.error:
                fail(run, run.error.strip().splitlines()[-1])
            elif run.converged_throughput <= 0.0:
                fail(run, "converged throughput is 0")
    logs = {run.label: run.log for run in reference.runs}
    for it in others:
        for run in it.runs:
            ref = logs.get(run.label)
            if ref and run.log and ref != run.log:
                fail(run, "decision log differs from the reference run")
    for run in reference.runs:
        if run.error:
            continue
        if run.scenario in rules.get("drops", ()) and run.dropped_tuples <= 0:
            fail(run, "drop policy dropped no tuples")
        if run.scenario in rules.get("no_drops", ()) and run.dropped_tuples:
            fail(run, "block policy dropped tuples")
    return failures
