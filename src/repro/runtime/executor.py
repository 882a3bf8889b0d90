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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.coordinator import CoordinatorAction, MultiLevelCoordinator
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


class AdaptationExecutor:
    """Runs the elastic adaptation loop over virtual time.

    The analytical substrate of :func:`run_periods`: period ``k`` ends
    at ``k * adaptation_period_s`` of virtual time.
    """

    def __init__(
        self,
        pe: ProcessingElement,
        coordinator: Optional[MultiLevelCoordinator] = None,
        workload_events: Optional[Sequence[Tuple[float, StreamGraph]]] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        self.pe = pe
        self._obs = ensure_hub(obs)
        config = pe.config
        if coordinator is None:
            coordinator = MultiLevelCoordinator(
                config=config.elasticity,
                max_threads=config.effective_max_threads,
                profile_provider=pe.profiling_groups,
                seed=config.seed,
                obs=self._obs,
            )
        self.coordinator = coordinator
        self._workload_events = sorted(
            workload_events or [], key=lambda ev: ev[0]
        )
        self.trace = AdaptationTrace.empty()
        self._events_left: List[Tuple[float, StreamGraph]] = []

    # ------------------------------------------------------------------
    def set_warm_start(self, spec) -> None:
        """Install (or clear, with None) the warm-start policy.

        The analytical substrate is steady-state — no envelope clock —
        so its phase token is constant; the graph is read lazily
        because workload events may swap it mid-run.
        """
        from ..core.warmstart import make_runner_session

        self.coordinator.set_warm_start(
            make_runner_session(
                spec,
                graph_fn=lambda: self.pe.graph,
                machine=self.pe.machine,
                config=self.pe.config,
                phase_token=lambda: "steady",
                obs=self._obs,
            )
        )

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

    def begin_run(self) -> None:
        """Reset per-run state ahead of :meth:`step_period` calls."""
        self.trace = AdaptationTrace.empty()
        self._events_left = list(self._workload_events)

    def step_period(self, k: int) -> float:
        """Adaptation period ``k`` (1-based), ending at ``k`` periods of
        virtual time: swap in due workload graphs, observe, decide and
        apply.  Returns the observed throughput."""
        time_s = k * self.pe.config.elasticity.adaptation_period_s
        events = self._events_left
        while events and events[0][0] <= time_s:
            _, new_graph = events.pop(0)
            self.pe.set_graph(new_graph)
        observed = self.pe.observe_throughput()
        true = self.pe.true_throughput()
        # The hub clock advances first so the period's observation,
        # the coordinator's decision and any resulting changes all
        # land in the same period of the unified log, in causal
        # order (observation < decision < change).
        self._obs.tick(time_s)
        self.trace.observations.append(
            self._obs.observation(
                time_s=time_s,
                throughput=observed,
                true_throughput=true,
                threads=self.pe.scheduler_threads,
                n_queues=self.pe.n_queues,
                mode=self.coordinator.mode.value,
            )
        )
        action = self.coordinator.step(observed)
        self._apply(action, time_s)
        return observed

    @property
    def is_stable(self) -> bool:
        return self.coordinator.is_stable

    @property
    def events_pending(self) -> bool:
        return bool(self._events_left)

    def result(self) -> ExecutionResult:
        """Package the run state accumulated so far."""
        return ExecutionResult(
            trace=self.trace,
            final_threads=self.pe.scheduler_threads,
            final_n_queues=self.pe.n_queues,
            final_dynamic_ratio=self.pe.dynamic_ratio(),
            converged_throughput=self.trace.final_throughput(),
        )

    # ------------------------------------------------------------------
    def _apply(self, action: CoordinatorAction, time_s: float) -> None:
        if action.set_threads is not None:
            old = self.pe.scheduler_threads
            if action.set_threads != old:
                self.trace.thread_changes.append(
                    self._obs.thread_change(
                        time_s=time_s,
                        old_threads=old,
                        new_threads=action.set_threads,
                    )
                )
                self.pe.set_scheduler_threads(action.set_threads)
        if action.set_placement is not None:
            old_q = self.pe.n_queues
            new_q = action.set_placement.n_queues
            if action.set_placement.queued != self.pe.placement.queued:
                self.trace.placement_changes.append(
                    self._obs.placement_change(
                        time_s=time_s,
                        old_n_queues=old_q,
                        new_n_queues=new_q,
                    )
                )
                self.pe.set_placement(action.set_placement)


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
