"""Adaptation loop driven by the discrete-event simulator.

Everything in :mod:`repro.core` is substrate-agnostic; this module
closes the loop on the *tuple-level* substrate: each adaptation period
is measured by actually executing the configured PE in the DES engine,
and the coordinator's configuration changes apply to the next period.

Reconfiguration semantics: the real runtime migrates queues in place;
here each period runs a freshly instantiated engine (with a short
warm-up excluded from measurement), which models the paper's
observation that measurements right after a change are transient —
the warm-up plays the role of the settling the adaptation period
allows before the throughput is read.

The runner is a substrate of :func:`~repro.runtime.executor.run_periods`
(the one period loop) and shares the observe→decide→apply step of
:class:`~repro.runtime.executor.AdaptationLoop` with the analytical
executor.  It supplies only the measurement
(:meth:`DesAdaptationRunner.measure`, run from the period's start time
so arrival envelopes advance), its graph, threads and placement, and
its warm-start phase token.  Every period therefore ticks the hub and logs its observation
and configuration changes, stamped ``time_s = k·T``.

Profiling from execution follows §3.1's continuous sampling: with
``profile_from_execution=True`` the measurement engine itself carries
the profiler thread, which snapshots every executing thread's
per-thread state variable during the period — the profile falls out of
the run the coordinator was measuring anyway, no dedicated profiling
run needed.  Sampled accounting keeps the engine's coalesced fast
path, so a profiled run is identical to an unprofiled one when every
region it executes is ``fast`` and no producer is backpressured into
helping a consumer.  It is not identical otherwise: a profiled run
still advances once per operator on regions that are not ``fast`` and
on backpressure helps, which can move the measurement slightly (with
every non-source operator of ``data-parallel-fan`` queued, 4 threads,
1 ms + 4 ms: 5,768,500 sink tuples/s unprofiled vs 5,766,500
profiled; ``thread_busy_fraction`` also differs on the fig07 pipeline
with 5 queues).

Measurement memoization: a period's outcome is deterministic in
``(graph, placement, threads, machine, seed, windows)``, and the
coordinator re-measures the same configuration every period it holds
one (and across Fig. 6/7 variants on the same scenario), so measured
periods are cached through :mod:`repro.bench.cache`.  ``sim_events``
counts only the DES kernel events actually executed (cache hits add
none), which is what the perf benchmarks report.

Because tuple-level simulation is orders of magnitude more expensive
than the analytical model, this runner is meant for small graphs
(tens of operators) — validation and demonstration, not the
large-scale figure sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..bench import cache
from ..core.binning import ProfilingGroup, build_groups
from ..core.coordinator import MultiLevelCoordinator
from ..core.profiler import CostProfile, SamplingProfiler
from ..core.warmstart import WarmStartSpec, quantize_rate
from ..graph.model import StreamGraph
from ..obs.hub import Obs
from ..perfmodel.machine import MachineProfile
from ..runtime.config import RuntimeConfig
from ..runtime.events import AdaptationTrace
from ..runtime.executor import AdaptationLoop, run_periods
from ..runtime.queues import QueuePlacement
from .channels import DEFAULT_CHANNEL, ChannelConfig
from .engine import DesEngine, DesResult

# Profiler wake-ups per measured window: enough samples that every
# non-negligible operator is caught, few enough that the profiler
# process stays a rounding error next to the tuple events.
_PROFILER_SAMPLES_PER_WINDOW = 400.0


@dataclass(frozen=True)
class DesAdaptationResult:
    """Outcome of a DES-driven elastic run."""

    trace: AdaptationTrace
    final_placement: QueuePlacement
    final_threads: int
    converged_throughput: float

    @property
    def final_n_queues(self) -> int:
        """Queue count of the final placement (the
        :class:`~repro.runtime.backend.BackendResult` shape every
        substrate's result carries)."""
        return self.final_placement.n_queues


class DesAdaptationRunner(AdaptationLoop):
    """Runs the multi-level coordinator against the DES engine."""

    def __init__(
        self,
        graph: StreamGraph,
        machine: MachineProfile,
        config: Optional[RuntimeConfig] = None,
        warmup_s: float = 0.002,
        measure_s: float = 0.01,
        queue_capacity: int = 16,
        workload_events: Optional[
            List[tuple]
        ] = None,  # [(time_s, StreamGraph)]
        profile_from_execution: bool = False,
        obs: Optional[Obs] = None,
        arrivals_factory=None,  # t0 -> {source_index: Iterator[float]}
        arrivals_key: Optional[Tuple] = None,
        overflow: str = "block",
        channel: Optional[ChannelConfig] = None,
        warm_start: Optional[WarmStartSpec] = None,
    ) -> None:
        """``arrivals_factory`` makes measurement periods *open-loop*:
        each period's engine gets fresh arrival streams starting at the
        period's wall-clock offset, so time-varying envelopes (diurnal,
        flash crowds) actually advance across the adaptation run.
        ``arrivals_key`` is the process's hashable identity for the
        measurement cache — without it open-loop periods are never
        memoized (two factories cannot be proven equivalent).
        ``overflow`` is the ingress policy and ``channel`` the batched
        channel configuration every period's engine runs under (see
        :class:`DesEngine`); the channel is part of the measurement
        cache key, so differently-batched runs never share cells.
        """
        super().__init__(obs, workload_events)
        self.graph = graph
        self.profile_from_execution = profile_from_execution
        self.machine = machine
        self.config = config if config is not None else RuntimeConfig()
        self.warmup_s = warmup_s
        self.measure_s = measure_s
        self.queue_capacity = queue_capacity
        self._profiler = SamplingProfiler(
            machine,
            n_samples=self.config.elasticity.profiling_samples,
            seed=self.config.seed + 1,
        )
        self.coordinator = MultiLevelCoordinator(
            config=self.config.elasticity,
            max_threads=self.config.effective_max_threads,
            profile_provider=self._profile_groups,
            seed=self.config.seed,
            obs=self._obs,
        )
        self.placement = QueuePlacement.empty()
        self.threads = self.config.elasticity.initial_threads
        # Execution profile of the most recently measured period (only
        # with profile_from_execution); the coordinator's
        # profile_provider reads it instead of launching a run.
        self._last_profile: Optional[CostProfile] = None
        # DES kernel events actually executed across the whole run —
        # memo hits contribute nothing (that is the point).  Of those,
        # events_elided resumed in place without the heap.
        self.sim_events = 0
        self.events_elided = 0
        self._arrivals_factory = arrivals_factory
        self._arrivals_key = arrivals_key
        self._overflow = overflow
        self._channel = channel if channel is not None else DEFAULT_CHANNEL
        # Simulated start time of the period being measured; drives the
        # arrival envelope under open-loop workloads.
        self._period_t0 = 0.0
        # Offered-load utilization of the last measured period (1.0
        # when closed-loop); see DesResult.offered_utilization.
        self.last_offered_utilization = 1.0
        # Mean thread-busy fraction of the last measured period; the
        # job-level coordinator reads it to judge scale-in headroom.
        self.last_mean_utilization = 0.0
        # Admitted source rate (tuples/s) of the last measured period.
        # Under the ``block`` overflow policy the engine's own
        # offered_utilization is blind to backpressure (a stalled
        # source stops *pulling* the schedule, so offered ≈ admitted);
        # the job executor compares this rate against the ingress rate
        # it installed to recover the true shortfall.
        self.last_source_rate = 0.0
        # Warm-start policy: a disabled/absent spec leaves the
        # coordinator's stock cold start byte-identical.
        if warm_start is not None:
            self.set_warm_start(warm_start)
        self._m_offered_util = self._obs.registry.gauge(
            "des.offered_utilization",
            "fraction of the offered open-loop load the PE admitted "
            "in the last measured period",
        )

    @property
    def _profiler_period_s(self) -> float:
        return self.measure_s / _PROFILER_SAMPLES_PER_WINDOW

    @property
    def _open_loop(self) -> bool:
        return self._arrivals_factory is not None

    @property
    def _cacheable(self) -> bool:
        """Open-loop periods are memoizable only when the arrival
        process declared a hashable identity."""
        return not self._open_loop or self._arrivals_key is not None

    def _measure_key(self, kind: str, profiled: bool) -> Tuple:
        key = (
            kind,
            cache.graph_fingerprint(self.graph),
            tuple(sorted(self.placement.queued)),
            self.threads,
            cache.machine_fingerprint(self.machine),
            self.config.seed,
            self.warmup_s,
            self.measure_s,
            self.queue_capacity,
            profiled,
            self._profiler_period_s if profiled else None,
            self._channel.key(),
        )
        if self._open_loop:
            # The same configuration under a different envelope phase
            # (or drop policy) is a different measurement.
            key += (self._arrivals_key, self._period_t0, self._overflow)
        return key

    def _make_engine(self) -> DesEngine:
        arrivals = None
        if self._arrivals_factory is not None:
            arrivals = self._arrivals_factory(self._period_t0)
        return DesEngine(
            self.graph,
            self.machine,
            self.placement,
            self.threads,
            queue_capacity=self.queue_capacity,
            obs=self._obs,
            arrivals=arrivals,
            overflow=self._overflow,
            channel=self._channel,
        )

    def _execute(
        self, kind: str, profiled: bool
    ) -> Tuple[DesResult, Optional[CostProfile]]:
        """Execute the current configuration once, sampled-profiled or
        not, or replay the memoized ``(result, profile)`` cell.

        Memoized: the DES is deterministic in the cell key, so a
        configuration the run (or a sibling variant) has already
        executed returns the cached cell without simulating a single
        event.
        """
        key = self._measure_key(kind, profiled) if self._cacheable else None
        if key is not None:
            hit, cached = cache.lookup(key, obs=self._obs)
            if hit:
                return cached
        engine = self._make_engine()
        profiler = None
        if profiled:
            profiler = engine.attach_profiler(
                period_s=self._profiler_period_s, sampled=True
            )
        result = engine.run(warmup_s=self.warmup_s, measure_s=self.measure_s)
        self.sim_events += engine.sim.events_processed
        self.events_elided += engine.sim.events_elided
        profile = profiler.profile(len(self.graph)) if profiler else None
        cell = (result, profile)
        if key is not None:
            cache.store(key, cell)
        return cell

    def _profile_groups(self) -> List[ProfilingGroup]:
        if not self.profile_from_execution:
            return build_groups(
                self.graph, self._profiler.profile(self.graph)
            )
        if self._last_profile is None:
            # Asked for a profile before any period was measured: run
            # the current configuration once with the profiler attached.
            self._last_profile = self._execute("des.profile", True)[1]
        # The paper's actual mechanism (§3.1): the profiler thread
        # snapshots the per-thread state variables *during normal
        # execution* — the measurement run the coordinator just
        # observed already carried it, so reuse that profile.
        return build_groups(self.graph, self._last_profile)

    # ------------------------------------------------------------------
    def measure(self) -> float:
        """One adaptation period: execute the current configuration
        (see :meth:`_execute`); under ``profile_from_execution`` the
        run also yields the period's execution profile."""
        profiled = self.profile_from_execution
        result, profile = self._execute("des.measure", profiled)
        if profiled:
            self._last_profile = profile
        # Open-loop honesty: an underloaded PE reports its offered-load
        # utilization rather than letting a low absolute throughput be
        # mistaken for contention by whoever reads the trace.
        self.last_offered_utilization = result.offered_utilization
        self.last_mean_utilization = result.mean_utilization
        self.last_source_rate = result.source_tuples_per_s
        if result.open_loop:
            self._m_offered_util.set(result.offered_utilization)
        return result.sink_tuples_per_s

    def _observe(self) -> Tuple[float, float]:
        """A DES measurement carries no noise: observed is true."""
        observed = self.measure()
        return observed, observed

    def _phase_token(self):
        """Workload-phase component of the warm-start store key.

        Closed-loop runs have exactly one phase ("saturated").  Open-
        loop runs key on the envelope rate at the current period's
        start, quantized so a phase revisited at a near-identical
        offered rate (the next diurnal cycle, the next ON burst)
        shares its store entry; without a rate oracle the arrival
        key's full identity is the conservative fallback.
        """
        if not self._open_loop:
            return "saturated"
        spec = self._warm_spec
        if spec is not None and spec.phase_rate is not None:
            return ("rate", quantize_rate(spec.phase_rate(self._period_t0)))
        return ("open", self._arrivals_key)

    def set_arrivals(self, factory, key: Optional[Tuple]) -> None:
        """Swap the arrival schedule between periods.

        The job layer couples a downstream PE's offered load to its
        upstream's *measured* emission: before each period it derives a
        fresh constant-rate schedule and installs it here.  ``key``
        must identify the schedule for the measurement cache (pass
        None to disable memoization for unidentifiable schedules).
        """
        self._arrivals_factory = factory
        self._arrivals_key = key

    def step_period(self, k: int) -> float:
        """Execute adaptation period ``k`` (1-based) through the shared
        step.  Returns the observed throughput.

        :func:`~repro.runtime.executor.run_periods` drives this in a
        loop; the multi-PE job executor drives several runners' periods
        in lockstep instead, injecting fresh arrival schedules between
        calls (:meth:`set_arrivals`).
        """
        # Arrival envelopes advance with the adaptation clock: the
        # k-th period's engine sees the schedule from (k-1)·T on.
        self._period_t0 = (k - 1) * self.config.elasticity.adaptation_period_s
        return super().step_period(k)

    def result(self) -> DesAdaptationResult:
        """Package the run state accumulated so far."""
        return DesAdaptationResult(
            trace=self.trace,
            final_placement=self.placement,
            final_threads=self.threads,
            converged_throughput=self.trace.final_throughput(window=4),
        )

    def run(
        self,
        max_periods: int = 120,
        stop_after_stable_periods: Optional[int] = 8,
    ) -> DesAdaptationResult:
        """Drive the adaptation loop for up to ``max_periods`` periods."""
        return run_periods(self, max_periods, stop_after_stable_periods)
