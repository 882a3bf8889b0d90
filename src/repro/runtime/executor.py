"""Virtual-clock adaptation executor.

Drives the multi-level coordinator against a simulated PE: every
``adaptation_period_s`` of virtual time, the executor observes the PE's
throughput, feeds it to the coordinator and applies the returned
configuration changes — exactly the paper's dedicated *adaptation
thread* loop, but with simulated time so a 1000-second adaptation run
finishes in milliseconds.

Workload schedules (Fig. 13) are supported through ``workload_events``:
a list of ``(time_s, graph)`` pairs; at each event time the PE's graph
is swapped, which the coordinator then detects purely through the
throughput signal.

:func:`run_periods` is the one period loop: it drives this executor,
the DES runner (:mod:`repro.des.adaptation`) and the multi-PE job
runner (:mod:`repro.job.executor`) through the same substrate surface
(:class:`~repro.runtime.backend.AdaptationBackend`).
:class:`AdaptationLoop` is the one period step, shared with the DES
runner (and, per PE, with the job runner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.coordinator import MultiLevelCoordinator
from ..graph.model import StreamGraph
from ..obs.hub import Obs, ensure_hub
from .events import AdaptationTrace
from .pe import ProcessingElement


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of an elastic run."""

    trace: AdaptationTrace
    final_threads: int
    final_n_queues: int
    final_dynamic_ratio: float
    converged_throughput: float


def run_periods(
    substrate,
    max_periods: int,
    stop_after_stable_periods: Optional[int] = None,
):
    """The adaptation thread's loop (Fig. 7), shared by every substrate.

    Calls ``substrate.begin_run()``, then ``step_period(k)`` for
    ``k = 1 .. max_periods``, and returns ``substrate.result()``.  With
    ``stop_after_stable_periods`` set, the run ends once
    ``substrate.is_stable`` has held for that many consecutive periods;
    periods with a workload event still pending are not counted, so a
    scheduled workload change is always reached.
    """
    if (
        isinstance(max_periods, bool)
        or not isinstance(max_periods, int)
        or max_periods < 1
    ):
        raise ValueError(
            f"max_periods must be an int >= 1, got {max_periods!r}"
        )
    if stop_after_stable_periods is not None and stop_after_stable_periods < 1:
        raise ValueError(
            "stop_after_stable_periods must be >= 1 or None, got "
            f"{stop_after_stable_periods!r}"
        )
    substrate.begin_run()
    stable_streak = 0
    for k in range(1, max_periods + 1):
        substrate.step_period(k)
        if stop_after_stable_periods is None or substrate.events_pending:
            continue
        if substrate.is_stable:
            stable_streak += 1
            if stable_streak >= stop_after_stable_periods:
                break
        else:
            stable_streak = 0
    return substrate.result()


class AdaptationLoop:
    """One scope's observe→decide→apply step, shared by the substrates.

    Period ``k`` (1-based) ends at ``k`` adaptation periods of virtual
    time.  :meth:`step_period` swaps in due workload graphs, measures,
    ticks the hub, logs the observation through it, steps the
    coordinator and applies its action, logging every thread and
    placement change — the MAPE loop of the paper's adaptation thread
    (Fig. 7), run once per period per PE.

    A substrate supplies the rest: ``coordinator``, ``config`` and
    ``machine``; read/write ``graph``, ``threads`` and ``placement``;
    :meth:`_observe`, returning the period's ``(observed, true)``
    throughputs; and :meth:`_phase_token` for the warm-start store key.
    """

    def __init__(
        self,
        obs: Optional[Obs],
        workload_events: Optional[Sequence[Tuple[float, StreamGraph]]],
    ) -> None:
        self._obs = ensure_hub(obs)
        self._workload_events = sorted(
            workload_events or [], key=lambda ev: ev[0]
        )
        self._warm_spec = None
        self.trace = AdaptationTrace.empty()
        self._events_left: List[Tuple[float, StreamGraph]] = []

    def set_warm_start(self, spec) -> None:
        """Install (or clear, with None) the warm-start policy.

        Part of the :class:`~repro.runtime.backend.AdaptationBackend`
        surface: every substrate accepts the same picklable spec.  The
        graph is read lazily because workload events may swap it
        mid-run.
        """
        from ..core.warmstart import make_runner_session

        self._warm_spec = spec
        self.coordinator.set_warm_start(
            make_runner_session(
                spec,
                graph_fn=lambda: self.graph,
                machine=self.machine,
                config=self.config,
                phase_token=self._phase_token,
                obs=self._obs,
            )
        )

    def begin_run(self) -> None:
        """Reset per-run state ahead of :meth:`step_period` calls."""
        self.trace = AdaptationTrace.empty()
        self._events_left = list(self._workload_events)

    def step_period(self, k: int) -> float:
        """Adaptation period ``k``: swap in due workload graphs,
        observe, decide and apply.  Returns the observed throughput."""
        time_s = k * self.config.elasticity.adaptation_period_s
        events = self._events_left
        while events and events[0][0] <= time_s:
            _, new_graph = events.pop(0)
            self.placement.validate(new_graph)
            self.graph = new_graph
        observed, true = self._observe()
        obs, trace = self._obs, self.trace
        # The hub clock advances first so the period's observation,
        # the coordinator's decision and any resulting changes all
        # land in the same period of the unified log, in causal
        # order (observation < decision < change).
        obs.tick(time_s)
        threads, placement = self.threads, self.placement
        trace.observations.append(
            obs.observation(
                time_s=time_s,
                throughput=observed,
                true_throughput=true,
                threads=threads,
                n_queues=placement.n_queues,
                mode=self.coordinator.mode.value,
            )
        )
        action = self.coordinator.step(observed)
        if action.set_threads is not None and action.set_threads != threads:
            trace.thread_changes.append(
                obs.thread_change(
                    time_s=time_s,
                    old_threads=threads,
                    new_threads=action.set_threads,
                )
            )
            self.threads = action.set_threads
        target = action.set_placement
        if target is not None and target.queued != placement.queued:
            trace.placement_changes.append(
                obs.placement_change(
                    time_s=time_s,
                    old_n_queues=placement.n_queues,
                    new_n_queues=target.n_queues,
                )
            )
            self.placement = target
        return observed

    @property
    def is_stable(self) -> bool:
        return self.coordinator.is_stable

    @property
    def events_pending(self) -> bool:
        return bool(self._events_left)


class AdaptationExecutor(AdaptationLoop):
    """Runs the elastic adaptation loop over virtual time.

    The analytical substrate of :func:`run_periods`: the
    :class:`ProcessingElement` holds graph, threads and placement, and
    its performance model is the measurement.
    """

    def __init__(
        self,
        pe: ProcessingElement,
        coordinator: Optional[MultiLevelCoordinator] = None,
        workload_events: Optional[Sequence[Tuple[float, StreamGraph]]] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        super().__init__(obs, workload_events)
        self.pe = pe
        self.config = config = pe.config
        self.machine = pe.machine
        if coordinator is None:
            coordinator = MultiLevelCoordinator(
                config=config.elasticity,
                max_threads=config.effective_max_threads,
                profile_provider=pe.profiling_groups,
                seed=config.seed,
                obs=self._obs,
            )
        self.coordinator = coordinator

    # ------------------------------------------------------------------
    # substrate access for the shared step
    # ------------------------------------------------------------------
    @property
    def graph(self) -> StreamGraph:
        return self.pe.graph

    @graph.setter
    def graph(self, graph: StreamGraph) -> None:
        self.pe.set_graph(graph)

    @property
    def threads(self) -> int:
        return self.pe.scheduler_threads

    @threads.setter
    def threads(self, n: int) -> None:
        self.pe.set_scheduler_threads(n)

    @property
    def placement(self):
        return self.pe.placement

    @placement.setter
    def placement(self, placement) -> None:
        self.pe.set_placement(placement)

    def _observe(self) -> Tuple[float, float]:
        return self.pe.observe_throughput(), self.pe.true_throughput()

    def _phase_token(self) -> str:
        """The analytical substrate is steady-state — no envelope
        clock — so its phase token is constant."""
        return "steady"

    # ------------------------------------------------------------------
    def run(
        self,
        duration_s: float,
        stop_after_stable_periods: Optional[int] = None,
    ) -> ExecutionResult:
        """Run the adaptation loop for ``duration_s`` of virtual time.

        With ``stop_after_stable_periods`` set, the run ends early once
        the coordinator has reported a stable configuration for that
        many consecutive periods — convenient for converged-throughput
        benchmarks where the tail of the run carries no information.
        (Not used for workload-change experiments, which need to keep
        monitoring.)
        """
        if not math.isfinite(duration_s) or duration_s <= 0:
            raise ValueError(
                f"duration_s must be finite and > 0, got {duration_s}"
            )
        # A period starts whenever the accumulated clock is still short
        # of the duration, so 12 s at 5 s periods is 3 periods.
        period = self.pe.config.elasticity.adaptation_period_s
        periods, time_s = 0, 0.0
        while time_s < duration_s:
            time_s += period
            periods += 1
        return run_periods(self, periods, stop_after_stable_periods)

    def result(self) -> ExecutionResult:
        """Package the run state accumulated so far."""
        return ExecutionResult(
            trace=self.trace,
            final_threads=self.pe.scheduler_threads,
            final_n_queues=self.pe.n_queues,
            final_dynamic_ratio=self.pe.dynamic_ratio(),
            converged_throughput=self.trace.final_throughput(),
        )


def run_elastic(
    pe: ProcessingElement,
    duration_s: float,
    workload_events: Optional[Sequence[Tuple[float, StreamGraph]]] = None,
    obs: Optional[Obs] = None,
) -> ExecutionResult:
    """Convenience wrapper: build an executor and run it.

    Pass an :class:`~repro.obs.ObservabilityHub` as ``obs`` to record
    metrics and the per-period decision log alongside the trace.
    """
    executor = AdaptationExecutor(
        pe, workload_events=workload_events, obs=obs
    )
    return executor.run(duration_s)
