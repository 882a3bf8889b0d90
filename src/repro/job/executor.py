"""Lockstep multi-PE adaptation over the tuple-level DES.

The :class:`JobAdaptationRunner` drives one
:class:`~repro.des.adaptation.DesAdaptationRunner` per PE of a
:class:`~repro.job.graph.JobGraph` through the *same* sequence of
adaptation periods, coupling them through the job's channels:

- every PE keeps its own multi-level coordinator (its own seed,
  derived as ``config.seed + 17*i`` in PE topological order — the
  :mod:`repro.runtime.job` idiom — so PEs never share random
  decisions) and publishes into the shared hub through a
  ``pe.<name>`` scope;
- the job ticks the hub once per period; each PE then takes the
  shared observe→decide→apply step (:func:`step_pe`) inside that tick,
  logging its observation, decision and changes under the job's period;
- each period runs in PE-topological order: before a PE's period, its
  ingress pseudo-sources get a derived *constant-rate* arrival
  schedule equal to the upstream PE's measured emission split by the
  channel's partition routing — the hottest replica's share, since
  the simulated replica stands in for the hottest one;
- ``forward`` channels do no rate shaping at all: the downstream PE
  runs saturated closed-loop, byte-identical to a standalone run of
  its extracted subgraph (the multi-PE equivalence tests pin this);
- after all PEs step, the :class:`~repro.job.coordinator.
  JobCoordinator` scales elastic PEs' replica counts out/in from
  their offered-load utilization, under an optional job-wide thread
  budget.

Replication model: one **representative replica** per PE is actually
simulated — the hottest one, offered ``channel_rate * max_share``.
The PE's aggregate emission is the replica's measured emission times
the channel's ``effective_replicas`` (``sum(shares)/max(shares)``):
when every replica keeps up emission is proportional to share, and
when the hottest saturates the cooler replicas still keep up, so the
hottest is the binding constraint either way.  This keeps a job with
8-way replication as cheap to simulate as its single-replica version
while preserving the skew effects that make partitioning interesting
(a key-hash hot spot caps effective parallelism below R).

PEs step in topological order inside each period, so an upstream
emission is already measured by the time its consumer's schedule is
derived — shaped channels couple from the very first period.  Derived
rates are quantized to 4 significant digits, an error far below the
SENS threshold.  That does not make derived-schedule periods hit the
measurement memo: every open-loop measurement key also holds the
period's start time, so each period of a PE with a derived schedule is
simulated afresh (0 of 28 lookups hit on ``multi-pe-keyhash-scale``, 0
of 24 on ``multi-pe-sink-contention``, at ``jobs=1``).  The start time
stays in the key on purpose: two periods' arrival windows differ in
the last bits of their arrival times, so replaying one for the other
would move decision logs.

Parallel execution (``jobs > 1``): PEs whose ingress schedules are
mutually independent this period — the same channel-topology wave,
i.e. every shaped upstream already measured in an earlier wave —
dispatch concurrently to a sticky :class:`~repro.runtime.pool.
WorkerPool`.  Each worker owns its PEs' runners for the whole run
(simulator and coordinator state never pickle between periods; only
ingress rates out and small report records back), and the parent
re-homes every worker-side decision, metric and memo cell in
deterministic PE order at the end of the period, so a parallel run is
byte-identical to a sequential one.  ``forward`` jobs have no
coupling at all, so every PE lands in one wave.

The pool is ``min(jobs, widest wave)`` workers wide, so ``jobs`` is an
upper bound.  A job whose waves are all one PE wide (every shaped
chain, e.g. ``key_hash`` and ``shuffle`` pipelines) starts no pool and
runs in-process: its workers could never overlap, and a forked worker
only adds re-homing and slower steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..bench import cache
from ..core.warmstart import PhaseRecord, PhaseStore, WarmStartSpec
from ..des.adaptation import DesAdaptationResult, DesAdaptationRunner
from ..des.channels import ChannelConfig
from ..obs.hub import Obs, ensure_hub
from ..obs.scope import scoped
from ..perfmodel.machine import MachineProfile
from ..runtime.config import RuntimeConfig
from ..runtime.events import AdaptationTrace, Observation
from ..runtime.executor import run_periods
from ..runtime.pool import POOL_START_ERRORS, WorkerPoolError, job_workers
from ..scenarios.arrivals import ArrivalProcess
from ..scenarios.schema import ArrivalKind, ArrivalSpec, PartitionStrategy
from ..sums import left_sum
from .coordinator import JobCoordinator, PeSummary
from .graph import JobGraph, PeSubgraph
from .partition import Router, make_router

# Seed stride between PE coordinators (matches repro.runtime.job).
_PE_SEED_STRIDE = 17
# Seed stride between channel routers.
_CHANNEL_SEED_STRIDE = 1_000_003


def _quantize(rate: float) -> float:
    """4 significant digits: a rate error far below SENS."""
    return float(f"{rate:.4g}")


# ----------------------------------------------------------------------
# Per-PE construction and arrival plumbing, shared with the pool
# workers (repro.job.parallel): a worker must build *exactly* the
# runner the parent would, from the same picklable ingredients, or the
# byte-identity guarantee breaks.
# ----------------------------------------------------------------------
def pe_seed(config: RuntimeConfig, index: int) -> int:
    """Seed of the ``index``-th PE (topological order)."""
    return config.seed + _PE_SEED_STRIDE * index


def real_source_factory(job: JobGraph, arrivals_factory, pe: PeSubgraph):
    """Scenario open-loop arrivals, re-keyed from full-graph source
    indices to this PE's subgraph indices."""
    if arrivals_factory is None:
        return None
    full = job.full_graph
    mapping = []  # (full_index, sub_index)
    for op in pe.graph.sources:
        if op.name.startswith("in:"):
            continue
        mapping.append((full.by_name(op.name).index, op.index))
    if not mapping:
        return None

    def pe_factory(t0: float):
        streams = arrivals_factory(t0)
        return {
            sub_idx: streams[full_idx]
            for full_idx, sub_idx in mapping
            if full_idx in streams
        }

    return pe_factory


def real_source_key(
    arrivals_factory, arrivals_key: Optional[Tuple], pe: PeSubgraph
) -> Optional[Tuple]:
    if arrivals_factory is None or arrivals_key is None:
        return None
    if not any(
        not op.name.startswith("in:") for op in pe.graph.sources
    ):
        return None
    return ("job-real", pe.name, arrivals_key)


def derived_arrivals(
    pe: PeSubgraph,
    seed: int,
    rates: Optional[Dict[int, float]],
    real_factory,
    real_key: Optional[Tuple],
):
    """This period's arrival schedule for one PE: derived constant-rate
    streams on the ingress pseudo-sources, merged with any real-source
    scenario arrivals.  Returns ``(factory, cache_key)``."""
    if rates is None:
        return real_factory, real_key
    procs = {
        idx: ArrivalProcess(
            ArrivalSpec(kind=ArrivalKind.DETERMINISTIC, rate=rate),
            seed=seed + idx,
        )
        for idx, rate in rates.items()
        if rate > 0.0
    }

    def factory(t0: float):
        streams = {
            idx: proc.arrival_stream(t0)
            for idx, proc in procs.items()
        }
        if real_factory is not None:
            streams.update(real_factory(t0))
        return streams

    key: Tuple = (
        "job-ingress",
        pe.name,
        tuple(sorted(rates.items())),
    )
    if real_key is not None:
        key += (real_key,)
    return factory, key


def build_pe_runner(
    job: JobGraph,
    machine: MachineProfile,
    config: RuntimeConfig,
    index: int,
    pe: PeSubgraph,
    runner_kwargs: Dict,
    arrivals_factory,
    arrivals_key: Optional[Tuple],
    obs: Optional[Obs],
) -> DesAdaptationRunner:
    """One PE's runner, identical whether built in the parent or in a
    pool worker (given the same picklable arguments)."""
    pe_config = replace(config, seed=pe_seed(config, index))
    return DesAdaptationRunner(
        pe.graph,
        machine,
        pe_config,
        obs=scoped(obs, f"pe.{pe.name}"),
        arrivals_factory=real_source_factory(job, arrivals_factory, pe),
        arrivals_key=real_source_key(arrivals_factory, arrivals_key, pe),
        **runner_kwargs,
    )


def pe_step_inputs(
    job: JobGraph,
    config: RuntimeConfig,
    index: int,
    pe: PeSubgraph,
    arrivals_factory,
    arrivals_key: Optional[Tuple],
) -> Tuple:
    """The fixed inputs of one PE's :func:`step_pe` calls:
    ``(pe, seed, real_source_factory, real_source_key)``."""
    return (
        pe,
        pe_seed(config, index),
        real_source_factory(job, arrivals_factory, pe),
        real_source_key(arrivals_factory, arrivals_key, pe),
    )


def step_pe(
    runner: DesAdaptationRunner,
    inputs: Tuple,
    rates: Optional[Dict[int, float]],
    k: int,
) -> Dict:
    """One PE's adaptation period ``k`` under this period's ingress
    ``rates``, the same call in-process and in a pool worker: install
    the derived arrival schedule, take the runner's shared step, and
    report what the job's ordered pass reads."""
    pe, seed, real_factory, real_key = inputs
    runner.set_arrivals(
        *derived_arrivals(pe, seed, rates, real_factory, real_key)
    )
    return {
        "observed": runner.step_period(k),
        "threads": runner.threads,
        "placement": runner.placement,
        "stable": runner.coordinator.is_stable,
        "offered_util": runner.last_offered_utilization,
        "mean_util": runner.last_mean_utilization,
        "source_rate": runner.last_source_rate,
        "sim_events": runner.sim_events,
    }


@dataclass(frozen=True)
class JobAdaptationResult:
    """Outcome of a multi-PE elastic run.

    Satisfies the :class:`~repro.runtime.backend.BackendResult`
    shape: ``final_threads``/``final_n_queues`` aggregate over
    PEs (replica-weighted), ``converged_throughput`` is the job's
    real-sink emission.
    """

    trace: AdaptationTrace
    pe_results: Dict[str, DesAdaptationResult]
    final_replicas: Dict[str, int]
    final_threads: int
    final_n_queues: int
    converged_throughput: float


class JobAdaptationRunner:
    """Runs a job graph's PEs in lockstep adaptation periods."""

    def __init__(
        self,
        job: JobGraph,
        machine: MachineProfile,
        config: Optional[RuntimeConfig] = None,
        warmup_s: float = 0.002,
        measure_s: float = 0.01,
        queue_capacity: int = 16,
        profile_from_execution: bool = False,
        obs: Optional[Obs] = None,
        arrivals_factory=None,  # full-graph t0 -> {source_index: iter}
        arrivals_key: Optional[Tuple] = None,
        overflow: str = "block",
        channel: Optional[ChannelConfig] = None,
        thread_budget: Optional[int] = None,
        jobs: Optional[int] = None,
        warm_start: Optional[WarmStartSpec] = None,
    ) -> None:
        self.job = job
        self.machine = machine
        self.config = config if config is not None else RuntimeConfig()
        self._hub = ensure_hub(obs)
        self._arrivals_factory = arrivals_factory
        self._arrivals_key = arrivals_key
        # Worker-pool width: the ``jobs`` argument (e.g. the CLI's
        # ``--jobs``) wins, then REPRO_JOB_WORKERS, then 1 (sequential).
        self.jobs = job_workers(jobs)
        # The warm-start spec rides inside runner_kwargs, so per-PE
        # runners built parent-side AND in pool workers seed their
        # coordinators identically (the spec is picklable by design).
        self._warm_spec = warm_start
        self._runner_kwargs = dict(
            warmup_s=warmup_s,
            measure_s=measure_s,
            queue_capacity=queue_capacity,
            profile_from_execution=profile_from_execution,
            overflow=overflow,
            channel=channel,
            warm_start=warm_start,
        )
        # JOB-level posterior: converged replica counts per phase.
        self._job_store = self._make_job_store()
        self._job_recorded = False
        self.coordinator = JobCoordinator(
            obs=self._hub, thread_budget=thread_budget
        )
        self.replicas: Dict[str, int] = {
            pe.name: pe.replicas for pe in job.pes
        }
        self.runners: Dict[str, DesAdaptationRunner] = {}
        self._step_inputs: Dict[str, Tuple] = {}
        for i, pe in enumerate(job.pes):
            self._step_inputs[pe.name] = pe_step_inputs(
                job, self.config, i, pe, arrivals_factory, arrivals_key
            )
            self.runners[pe.name] = build_pe_runner(
                job,
                machine,
                self.config,
                i,
                pe,
                self._runner_kwargs,
                arrivals_factory,
                arrivals_key,
                self._hub,
            )
        self._routers: Dict[int, Router] = {}
        self._rebuild_routers()
        # Aggregate emission (tuples/s over all sinks x all replicas)
        # per PE, from the most recent period; None = not yet measured.
        self._emission: Dict[str, Optional[float]] = {
            pe.name: None for pe in job.pes
        }
        # Total ingress rate installed on each PE this period (None =
        # ran saturated).  The engine's offered_utilization is blind
        # under ``block`` overflow — a backpressured source stops
        # pulling the schedule, so offered ≈ admitted ≈ 1.0 — but the
        # executor *chose* the offered rate, so admitted/installed is
        # the honest utilization either way.
        self._installed_rate: Dict[str, Optional[float]] = {
            pe.name: None for pe in job.pes
        }
        # Per-PE coordinator stability as of the last completed period
        # (mirrored from worker reports in parallel mode), and whether
        # the job coordinator changed replica counts in it.
        self._pe_stable: Dict[str, bool] = {}
        self._job_changed = False
        self.trace = AdaptationTrace.empty()
        # Live parallel session while run() drives a worker pool, and
        # the per-PE results it fetched at the end of the run.
        self._session = None
        self._pe_results: Optional[Dict[str, DesAdaptationResult]] = None

    # ------------------------------------------------------------------
    # warm start
    # ------------------------------------------------------------------
    def set_warm_start(self, spec: Optional[WarmStartSpec]) -> None:
        """Install (or clear) warm-start on every per-PE runner and on
        the job-level replica posterior.  Updates ``_runner_kwargs`` so
        pool workers spawned later build identically-seeded runners."""
        self._warm_spec = spec
        self._runner_kwargs["warm_start"] = spec
        for runner in self.runners.values():
            runner.set_warm_start(spec)
        self._job_store = self._make_job_store()

    def _make_job_store(self) -> Optional[PhaseStore]:
        spec = self._warm_spec
        if spec is None or spec.mode not in ("history", "auto"):
            return None
        return PhaseStore(spec.store_dir)

    def _job_phase_key(self) -> str:
        """Fingerprint of (job topology, machine, config): the key the
        converged replica assignment is remembered under.  Replica
        counts are a coarse knob, so the job-level phase token is
        constant — per-PE stores carry the workload-phase dimension."""
        pes = tuple(
            (
                pe.name,
                cache.graph_fingerprint(pe.graph),
                pe.replicas,
                pe.max_replicas,
                pe.elastic,
            )
            for pe in self.job.pes
        )
        channels = tuple(
            (c.src_pe, c.dst_pe, c.dst_source, c.weight)
            for c in self.job.channels
        )
        return cache.fingerprint(
            "warm-job",
            pes,
            channels,
            self.job.partition.strategy.value,
            cache.machine_fingerprint(self.machine),
            cache.config_fingerprint(self.config),
        )

    def _maybe_warm_replicas(self) -> None:
        """Posterior snap-back at the JOB level: restore the converged
        replica assignment recorded for this (job, machine, config)."""
        if self._job_store is None:
            return
        record = self._job_store.lookup(self._job_phase_key())
        if record is None or not record.replicas:
            return
        by_name = {pe.name: pe for pe in self.job.pes}
        changed = False
        for name, count in record.replicas:
            pe = by_name.get(name)
            if pe is None or not pe.elastic:
                continue
            count = max(1, min(pe.max_replicas, int(count)))
            if self.replicas[name] != count:
                self.replicas[name] = count
                changed = True
        if changed:
            self._rebuild_routers()
            self._hub.registry.counter(
                "warmstart.job_replica_hits",
                "job-level warm replica restores",
            ).inc()

    def _record_job_point(self, job_throughput: float) -> None:
        self._job_recorded = True
        total = self._total_threads()
        self._job_store.record(
            self._job_phase_key(),
            PhaseRecord(
                threads=total,
                queued=(),
                throughput=job_throughput,
                thread_range=(total, total),
                replicas=tuple(sorted(self.replicas.items())),
            ),
        )

    # ------------------------------------------------------------------
    # arrival plumbing
    # ------------------------------------------------------------------
    def _router_seed(self, channel_index: int) -> int:
        base = self.job.partition.seed
        if base is None:
            base = self.config.seed
        return base + _CHANNEL_SEED_STRIDE * channel_index

    def _rebuild_routers(self) -> None:
        """(Re)build one router per channel against the destination
        PE's *current* replica count."""
        for i, c in enumerate(self.job.channels):
            self._routers[i] = make_router(
                self.job.partition.strategy,
                self.replicas[c.dst_pe],
                seed=self._router_seed(i),
                key_space=self.job.partition.key_space,
            )

    def _ingress_schedule(
        self, pe: PeSubgraph
    ) -> Tuple[Optional[Dict[int, float]], float]:
        """Per-ingress offered rates for the representative replica.

        Returns ``(rates, effective_replicas)``.  ``rates`` is None
        when the PE runs saturated this period: pass-through
        (forward) channels never shape, and shaped channels cannot
        before their upstream has been measured once.
        """
        effective = float(self.replicas[pe.name])
        if self.job.partition.strategy is PartitionStrategy.FORWARD:
            return None, effective
        rates: Dict[int, float] = {}
        for i, c in enumerate(self.job.channels):
            if c.dst_pe != pe.name:
                continue
            upstream = self._emission[c.src_pe]
            if upstream is None:
                return None, effective
            router = self._routers[i]
            effective = min(effective, router.effective_replicas)
            idx = pe.ingress_index(c.dst_source)
            rate = _quantize(upstream * c.weight * router.max_share)
            rates[idx] = rates.get(idx, 0.0) + rate
        if not rates:
            return None, effective
        return rates, effective

    # ------------------------------------------------------------------
    # parallel dispatch topology
    # ------------------------------------------------------------------
    def _waves(self) -> Tuple[Tuple[PeSubgraph, ...], ...]:
        """PEs grouped into concurrently-dispatchable waves.

        A PE's ingress schedule for period ``k`` is fixed as soon as
        every shaped upstream has been measured *this* period, so a
        wave is one channel-topology layer: all its members' derived
        rates are already quantized and installed by the time it
        dispatches.  ``forward`` jobs never shape, so every PE's
        schedule is fixed a priori — one wave, maximal parallelism.
        """
        if (
            self.job.partition.strategy is PartitionStrategy.FORWARD
            or not self.job.channels
        ):
            return (tuple(self.job.pes),)
        depth: Dict[str, int] = {}
        for pe in self.job.pes:  # topological order
            incoming = self.job.channels_into(pe.name)
            depth[pe.name] = 1 + max(
                (depth[c.src_pe] for c in incoming), default=-1
            )
        waves: List[Tuple[PeSubgraph, ...]] = []
        for level in range(max(depth.values()) + 1):
            wave = tuple(
                pe for pe in self.job.pes if depth[pe.name] == level
            )
            if wave:
                waves.append(wave)
        return tuple(waves)

    def _start_session(self):
        """Spin up the sticky worker pool, or None for the sequential
        path: fewer than 2 workers could overlap (``jobs`` < 2, or no
        wave holds two PEs), or pool infrastructure is unavailable in
        this environment — same graceful degradation as
        :func:`repro.runtime.pool.run_cells`."""
        self._wave_list = self._waves()
        n_workers = min(self.jobs, max(len(w) for w in self._wave_list))
        if n_workers < 2:
            return None
        from .parallel import JobWorkerSession

        try:
            return JobWorkerSession(
                job=self.job,
                machine=self.machine,
                config=self.config,
                runner_kwargs=self._runner_kwargs,
                arrivals_factory=self._arrivals_factory,
                arrivals_key=self._arrivals_key,
                detached=not self._hub.enabled,
                n_workers=n_workers,
            )
        except POOL_START_ERRORS + (WorkerPoolError,):
            # A worker that cannot even construct its runners points
            # at the environment, not the workload: the sequential
            # path re-runs the same construction in-process, so a
            # genuine bug resurfaces there with a plain traceback.
            return None

    # ------------------------------------------------------------------
    # the lockstep loop
    # ------------------------------------------------------------------
    def step_period(self, k: int) -> float:
        """Run adaptation period ``k`` across every PE, couple the
        channels, then take one job-coordinator step.  Returns the
        job throughput observed this period."""
        period_s = self.config.elasticity.adaptation_period_s
        self._hub.tick(k * period_s)
        if self._session is not None:
            reports = self._period_parallel(k)
        else:
            reports = self._period_sequential(k)
        # Ordered pass: re-home worker-side effects and build the
        # coordinator's view in deterministic PE order, so the merged
        # decision log is identical however the period executed.
        job_throughput = 0.0
        summaries: List[PeSummary] = []
        for pe in self.job.pes:
            rep = reports[pe.name]
            if self._session is not None:
                self._absorb_report(pe, rep)
            job_throughput += (
                rep["observed"]
                * rep["effective"]
                * pe.real_sink_weight()
            )
            summaries.append(
                PeSummary(
                    name=pe.name,
                    replicas=self.replicas[pe.name],
                    max_replicas=pe.max_replicas,
                    elastic=pe.elastic,
                    offered_utilization=self._offered_utilization(
                        pe.name, rep
                    ),
                    mean_utilization=rep["mean_util"],
                    threads=rep["threads"],
                    stable=rep["stable"],
                )
            )
            self._pe_stable[pe.name] = rep["stable"]
        action = self.coordinator.step(summaries, job_throughput)
        if action.changed:
            self.replicas.update(action.set_replicas)
            self._rebuild_routers()
        self._job_changed = action.changed
        if (
            self._job_store is not None
            and not self._job_recorded
            and self.is_stable
        ):
            self._record_job_point(job_throughput)
        self.trace.observations.append(
            Observation(
                time_s=k * period_s,
                throughput=job_throughput,
                true_throughput=job_throughput,
                threads=self._total_threads(),
                n_queues=self._total_queues(),
                mode="job",
            )
        )
        return job_throughput

    def _period_sequential(self, k: int) -> Dict[str, Dict]:
        """One period, PE by PE in topological order (classic path)."""
        reports: Dict[str, Dict] = {}
        for pe in self.job.pes:
            rates, effective = self._ingress_schedule(pe)
            self._installed_rate[pe.name] = (
                left_sum(rates.values()) if rates else None
            )
            rep = step_pe(
                self.runners[pe.name], self._step_inputs[pe.name], rates, k
            )
            rep["effective"] = effective
            self._emission[pe.name] = rep["observed"] * effective
            reports[pe.name] = rep
        return reports

    def _period_parallel(self, k: int) -> Dict[str, Dict]:
        """One period, fanning each wave across the worker pool.

        Emission updates happen as each wave collects, so the next
        wave's derived rates see exactly what the sequential loop
        would have; everything hub-visible inside the reports is
        deferred to the ordered pass in :meth:`step_period`.
        """
        session = self._session
        reports: Dict[str, Dict] = {}
        for wave in self._wave_list:
            dispatched = []
            for pe in wave:
                rates, effective = self._ingress_schedule(pe)
                self._installed_rate[pe.name] = (
                    left_sum(rates.values()) if rates else None
                )
                session.submit_step(pe.name, k, rates)
                dispatched.append((pe, effective))
            for pe, effective in dispatched:
                rep = session.collect_step(pe.name)
                rep["effective"] = effective
                self._emission[pe.name] = rep["observed"] * effective
                reports[pe.name] = rep
        return reports

    def _absorb_report(self, pe: PeSubgraph, rep: Dict) -> None:
        """Re-home one worker report into the parent's state: replay
        the step's log records (the parent hub assigns seq, and a
        decision's time and period), merge scoped metric states,
        install fresh memo cells, and mirror the runner attributes
        other layers read."""
        for method, fields in rep["records"]:
            getattr(self._hub, method)(**fields)
        if rep["metrics"] and self._hub.enabled:
            self._hub.registry.merge_state(rep["metrics"])
        if rep["cache"]:
            cache.install(rep["cache"])
        runner = self.runners[pe.name]
        runner.threads = rep["threads"]
        runner.placement = rep["placement"]
        runner.last_offered_utilization = rep["offered_util"]
        runner.last_mean_utilization = rep["mean_util"]
        runner.last_source_rate = rep["source_rate"]
        runner.sim_events = rep["sim_events"]

    def _offered_utilization(self, pe_name: str, rep: Dict) -> float:
        """Offered-load utilization of the PE's hot replica.

        When the executor installed a derived ingress rate, the
        admitted-over-installed ratio is authoritative (the engine's
        own figure saturates at ~1.0 under ``block`` backpressure);
        otherwise fall through to the engine's measurement.
        """
        installed = self._installed_rate[pe_name]
        util = rep["offered_util"]
        if installed is not None and installed > 0.0:
            util = min(util, rep["source_rate"] / installed)
        return min(1.0, util)

    def _total_threads(self) -> int:
        return sum(
            self.runners[pe.name].threads * self.replicas[pe.name]
            for pe in self.job.pes
        )

    def _total_queues(self) -> int:
        return sum(
            self.runners[pe.name].placement.n_queues
            * self.replicas[pe.name]
            for pe in self.job.pes
        )

    @property
    def is_stable(self) -> bool:
        """All PE coordinators settled and the job loop held still."""
        if len(self._pe_stable) < len(self.job.pes):
            return False
        return all(self._pe_stable.values()) and not self._job_changed

    @property
    def events_pending(self) -> bool:
        """Jobs take no workload-change schedule."""
        return False

    def begin_run(self) -> None:
        """Reset per-run state, restore warm replicas, and start every
        PE's run (in the pool workers when a session is live)."""
        self.trace = AdaptationTrace.empty()
        self._pe_results = None
        self._pe_stable = {}
        self._job_changed = False
        self._job_recorded = False
        self._maybe_warm_replicas()
        if self._session is None:
            for runner in self.runners.values():
                runner.begin_run()
        else:
            self._session.begin()

    def run(
        self,
        max_periods: Optional[int] = None,
        stop_after_stable_periods: Optional[int] = 8,
    ) -> JobAdaptationResult:
        """Drive the lockstep loop through
        :func:`~repro.runtime.executor.run_periods`, inside a worker
        pool session when ``jobs > 1`` and some wave holds two PEs."""
        self._session = self._start_session()
        try:
            result = run_periods(
                self,
                120 if max_periods is None else max_periods,
                stop_after_stable_periods,
            )
            if self._session is not None:
                self._pe_results = self._session.finish()
                result = self.result()
        finally:
            if self._session is not None:
                self._session.close()
                self._session = None
        return result

    def result(self) -> JobAdaptationResult:
        if self._pe_results is not None:
            pe_results = dict(self._pe_results)
        else:
            pe_results = {
                name: runner.result()
                for name, runner in self.runners.items()
            }
        return JobAdaptationResult(
            trace=self.trace,
            pe_results=pe_results,
            final_replicas=dict(self.replicas),
            final_threads=self._total_threads(),
            final_n_queues=self._total_queues(),
            converged_throughput=self.trace.final_throughput(window=4),
        )
