"""Execute compiled scenarios on the DES and perfmodel backends.

One entry point, :func:`run_scenario`, drives the same compiled
scenario through either substrate:

- **des** — the tuple-level engine via
  :class:`~repro.des.adaptation.DesAdaptationRunner`, with open-loop
  arrival streams, bounded queues and the configured overflow policy;
- **perfmodel** — the analytical model via
  :class:`~repro.runtime.pe.ProcessingElement` +
  :class:`~repro.runtime.executor.AdaptationExecutor`, where the
  compiler's source ``max_rate`` cap makes offered load the binding
  constraint when the workload is lighter than the machine.

Scenarios with a ``pes:`` block are dispatched to the multi-PE job
executor (:class:`~repro.job.executor.JobAdaptationRunner`, DES
only), and :func:`make_backend` hands any compiled scenario back as
an :class:`~repro.runtime.backend.AdaptationBackend` without running
it.  Each substrate is built in one place, which both paths share.

Both paths publish decisions through the same
:class:`~repro.obs.ObservabilityHub`, so a scenario's R1–R5 decision
sequence is comparable across backends and across sessions — the
property the regression zoo exists to pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs.hub import Obs, ObservabilityHub
from .compile import CompiledScenario
from .schema import Backend


@dataclass(frozen=True)
class ScenarioRunResult:
    """Outcome of one scenario run on one backend.

    ``decisions`` is the coordinator's per-period
    ``(rule, set_threads, set_n_queues)`` sequence — the regression
    signature.  ``offered_utilization`` is the fraction of the offered
    open-loop load the PE admitted in the last measured period (1.0
    for saturated scenarios); ``dropped_tuples`` counts arrivals shed
    at full ingress queues under the ``drop`` policy across the run.
    """

    scenario: str
    backend: str
    periods: int
    converged_throughput: float
    final_threads: int
    final_n_queues: int
    decisions: Tuple[Tuple[str, Optional[int], Optional[int]], ...]
    offered_utilization: float = 1.0
    dropped_tuples: float = 0.0
    open_loop: bool = False
    mean_arrival_rate: Optional[float] = None
    # Multi-PE jobs only: final replica count per PE name.
    pe_replicas: Tuple[Tuple[str, int], ...] = ()


def _decisions(hub: ObservabilityHub):
    return tuple(
        (d.rule, d.set_threads, d.set_n_queues) for d in hub.decisions()
    )


def _counter_value(hub: ObservabilityHub, name: str) -> float:
    metric = hub.registry.get(name)
    return float(metric.value) if metric is not None else 0.0


def _warm_spec(compiled: CompiledScenario, explicit: Optional[str]):
    """Resolve the effective warm-start policy into a
    :class:`~repro.core.warmstart.WarmStartSpec`, or None when it
    resolves to ``off`` (the default — byte-identical cold start).

    Precedence mirrors ``--jobs``: explicit argument (the CLI flag)
    beats the scenario's ``run.warm_start``, which beats the
    ``REPRO_WARM_START`` environment variable.  The envelope's
    ``rate_at`` becomes the phase oracle for open-loop scenarios so
    the posterior keys on workload phase, not just topology.
    """
    from ..core.warmstart import WarmStartSpec, resolve_warm_start

    mode = resolve_warm_start(explicit, compiled.scenario.run.warm_start)
    if mode == "off":
        return None
    phase_rate = None
    if compiled.arrival_process is not None:
        phase_rate = compiled.arrival_process.rate_at
    return WarmStartSpec(mode=mode, phase_rate=phase_rate)


def _des_substrate(
    compiled: CompiledScenario, obs: Optional[Obs], jobs: Optional[int], spec
):
    """The scenario's DES substrate: the multi-PE job runner when it
    declares ``pes``, the single-PE runner otherwise."""
    run = compiled.scenario.run
    kwargs = dict(
        warmup_s=run.warmup_s,
        measure_s=run.measure_s,
        queue_capacity=run.queue_capacity,
        profile_from_execution=run.profile_from_execution,
        obs=obs,
        arrivals_factory=compiled.arrivals_factory(),
        arrivals_key=compiled.arrivals_key(),
        overflow=compiled.overflow,
        channel=compiled.channel,
    )
    if compiled.multi_pe:
        from ..job.executor import JobAdaptationRunner

        runner = JobAdaptationRunner(
            compiled.job,
            compiled.machine,
            compiled.config,
            jobs=jobs if jobs is not None else run.jobs,
            **kwargs,
        )
    else:
        from ..des.adaptation import DesAdaptationRunner

        runner = DesAdaptationRunner(
            compiled.graph, compiled.machine, compiled.config, **kwargs
        )
    if spec is not None:
        runner.set_warm_start(spec)
    return runner


def _perfmodel_executor(compiled: CompiledScenario, obs: Optional[Obs], spec):
    from ..runtime.executor import AdaptationExecutor
    from ..runtime.pe import ProcessingElement

    pe = ProcessingElement(compiled.graph, compiled.machine, compiled.config)
    executor = AdaptationExecutor(pe, obs=obs)
    if spec is not None:
        executor.set_warm_start(spec)
    return executor


def _run_result(
    compiled: CompiledScenario, backend: str, result, decisions, **extra
) -> ScenarioRunResult:
    return ScenarioRunResult(
        scenario=compiled.scenario.name,
        backend=backend,
        periods=len(result.trace.observations),
        converged_throughput=result.converged_throughput,
        final_threads=result.final_threads,
        final_n_queues=result.final_n_queues,
        decisions=decisions,
        open_loop=compiled.open_loop,
        mean_arrival_rate=compiled.mean_arrival_rate,
        **extra,
    )


def run_on_des(
    compiled: CompiledScenario,
    obs: Optional[Obs] = None,
    jobs: Optional[int] = None,
    warm_start: Optional[str] = None,
) -> ScenarioRunResult:
    """Run the scenario's adaptation loop on the tuple-level DES.

    Multi-PE scenarios (a ``pes:`` block) are dispatched to the job
    executor — the single-PE runner cannot route inter-PE channels —
    with ``jobs`` (the worker-pool width) forwarded; single-PE
    scenarios have nothing to parallelize and ignore it.
    ``warm_start`` overrides the scenario's ``run.warm_start``.
    """
    if compiled.multi_pe:
        return run_on_job(
            compiled, obs=obs, jobs=jobs, warm_start=warm_start
        )
    run = compiled.scenario.run
    hub = obs if obs is not None else ObservabilityHub()
    runner = _des_substrate(
        compiled, hub, None, _warm_spec(compiled, warm_start)
    )
    result = runner.run(
        max_periods=run.max_periods,
        stop_after_stable_periods=run.stop_after_stable_periods,
    )
    return _run_result(
        compiled,
        "des",
        result,
        _decisions(hub),
        offered_utilization=runner.last_offered_utilization,
        dropped_tuples=_counter_value(hub, "des.dropped_tuples"),
    )


def run_on_job(
    compiled: CompiledScenario,
    obs: Optional[Obs] = None,
    jobs: Optional[int] = None,
    warm_start: Optional[str] = None,
) -> ScenarioRunResult:
    """Run a multi-PE scenario through the job executor.

    ``decisions`` carries the *job-level* decision stream (scope
    ``"job"``); per-PE R1–R5 streams stay in the hub under their
    ``pe.<name>`` scopes for callers that keep the hub.  ``jobs``
    overrides the worker-pool width (explicit argument beats the
    scenario's ``run.jobs``, which beats ``REPRO_JOB_WORKERS``).
    """
    if not compiled.multi_pe:
        raise ValueError(
            f"scenario {compiled.scenario.name!r} declares no 'pes' "
            "block; use run_on_des"
        )
    run = compiled.scenario.run
    hub = obs if obs is not None else ObservabilityHub()
    runner = _des_substrate(
        compiled, hub, jobs, _warm_spec(compiled, warm_start)
    )
    result = runner.run(
        max_periods=run.max_periods,
        stop_after_stable_periods=run.stop_after_stable_periods,
    )
    job_decisions = tuple(
        (d.rule, d.set_threads, d.set_n_queues)
        for d in hub.decisions()
        if d.scope == "job"
    )
    offered = min(
        (r.last_offered_utilization for r in runner.runners.values()),
        default=1.0,
    )
    return _run_result(
        compiled,
        "des",
        result,
        job_decisions,
        offered_utilization=offered,
        dropped_tuples=_counter_value(hub, "des.dropped_tuples"),
        pe_replicas=tuple(sorted(result.final_replicas.items())),
    )


def make_backend(
    compiled: CompiledScenario,
    obs: Optional[Obs] = None,
    jobs: Optional[int] = None,
    warm_start: Optional[str] = None,
):
    """Construct the :class:`~repro.runtime.backend.AdaptationBackend`
    a compiled scenario runs on, without running it.

    Returns a job runner for multi-PE scenarios, an
    :class:`~repro.runtime.executor.AdaptationExecutor` for perfmodel
    ones and a DES runner otherwise — all drivable by
    :func:`~repro.runtime.executor.run_periods`.
    """
    spec = _warm_spec(compiled, warm_start)
    if (
        not compiled.multi_pe
        and compiled.scenario.run.backend is Backend.PERFMODEL
    ):
        return _perfmodel_executor(compiled, obs, spec)
    return _des_substrate(compiled, obs, jobs, spec)


def run_on_perfmodel(
    compiled: CompiledScenario,
    obs: Optional[Obs] = None,
    warm_start: Optional[str] = None,
) -> ScenarioRunResult:
    """Run the scenario's adaptation loop on the analytical model."""
    run = compiled.scenario.run
    hub = obs if obs is not None else ObservabilityHub()
    executor = _perfmodel_executor(
        compiled, hub, _warm_spec(compiled, warm_start)
    )
    result = executor.run(
        duration_s=run.duration_s,
        stop_after_stable_periods=run.stop_after_stable_periods,
    )
    # The analytical model has no transient queue state to overflow;
    # offered-load utilization is achieved/offered at the cap.
    offered_util = 1.0
    if compiled.open_loop and compiled.mean_arrival_rate:
        sources = len(compiled.graph.sources)
        offered = compiled.mean_arrival_rate * sources
        sink_gain = compiled.sink_gain()
        if offered > 0 and sink_gain > 0:
            achieved = result.converged_throughput / sink_gain
            offered_util = min(1.0, achieved / offered)
    return _run_result(
        compiled,
        "perfmodel",
        result,
        _decisions(hub),
        offered_utilization=offered_util,
    )


def run_scenario(
    compiled: CompiledScenario,
    backend: Optional[str] = None,
    obs: Optional[Obs] = None,
    jobs: Optional[int] = None,
    warm_start: Optional[str] = None,
) -> Tuple[ScenarioRunResult, ...]:
    """Run a compiled scenario on the requested backend(s).

    ``backend`` is ``"des"``, ``"perfmodel"`` or ``"both"``; ``None``
    defers to the scenario's own ``run.backend`` declaration.  Returns
    one result per backend actually run.  ``jobs`` caps the multi-PE
    worker-pool width (the ``--jobs`` CLI flag); ``warm_start`` the
    coordinator seeding policy (the ``--warm-start`` flag — explicit
    beats ``run.warm_start`` beats ``REPRO_WARM_START``).
    """
    choice = Backend(backend) if backend else compiled.scenario.run.backend
    results = []
    if choice in (Backend.DES, Backend.BOTH):
        results.append(
            run_on_des(compiled, obs=obs, jobs=jobs, warm_start=warm_start)
        )
    if choice in (Backend.PERFMODEL, Backend.BOTH):
        results.append(
            run_on_perfmodel(compiled, obs=obs, warm_start=warm_start)
        )
    return tuple(results)
