"""Tuple-level discrete-event simulation of a processing element.

This is the validation substrate: where :mod:`repro.perfmodel` computes
steady-state throughput analytically, the DES engine *executes* the PE
tuple by tuple — threads contend for cores, scheduler queues exert
backpressure, locks serialize, work-finding scans cost time — and
measures throughput at the sinks.  Tests use it to confirm the
analytical model's qualitative claims (ordering of configurations,
contention effects) on small graphs.

Execution semantics (mirroring §2.1):

- each **source** operator is driven by a dedicated operator thread that
  repeatedly executes the source's manual region, one source tuple per
  iteration;
- each **scheduler thread** loops: acquire a core, scan the queue list
  (cost grows with queue count), pop from the first non-empty queue
  (round-robin start), execute that queued region, release the core;
- executing a region advances time by the member operators' costs,
  acquires operator-internal locks where declared, and pushes tuples
  into downstream scheduler queues (copy + synchronization cost,
  blocking when the queue is full);
- cores are a token pool: at most ``machine.logical_cores`` threads make
  progress at once.

A scheduler thread whose scan finds every queue empty **parks** on the
queue set (§2.1: "real runtimes park such threads") and is woken by the
next push — one thread per pushed tuple, FIFO in park order — so an
idle thread costs O(1) simulator events per idle episode rather than a
polling event every backoff interval.  Only the transient case "work
exists but another thread holds that region's port" still backs off on
a short timeout.

Fractional selectivities are handled in expectation: per entry tuple a
region charges ``rate/entry_rate`` executions of each member operator,
and accumulates fractional push credits, emitting whole tuples as the
credit crosses one.

Performance notes (see ``docs/PERFORMANCE.md``): hot process bodies
yield bare floats instead of ``Timeout`` dataclasses, and consecutive
operator timeouts between lock/queue boundaries coalesce into a single
event.  Profiled runs stay on the coalesced fast path by default:
merged advances publish their analytic per-operator composition as a
*sampled-accounting interval* (:meth:`ThreadRegistry.set_interval`),
which the snapshot profiler resolves positionally — statistically
equivalent to fine-grained per-operator events at a fraction of the
cost.  ``attach_profiler(sampled=False)`` restores the fine-grained
per-operator event granularity for cross-validation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import (
    Dict,
    Generator,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from ..graph.model import StreamGraph
from ..obs.hub import Obs, ensure_hub
from ..perfmodel.machine import MachineProfile
from ..runtime.queues import QueuePlacement
from ..runtime.regions import Region, decompose
from ..runtime.threads import SnapshotProfiler, ThreadRegistry
from ..sums import left_sum
from .channels import DEFAULT_CHANNEL, ChannelConfig
from .kernel import (
    Acquire,
    Get,
    ParkUntilNonEmpty,
    Put,
    SimLock,
    SimQueue,
    Simulator,
    WakeAt,
)

_TOKEN = object()
# Backoff used only while a non-empty queue's region is being executed
# by another thread (transient); empty-queue idling parks instead.
_IDLE_BACKOFF_S = 2.0e-6
# Claims a thread may execute per core acquisition before offering the
# core back to waiters.  An OS timeslices contending threads at a much
# coarser granularity than one scheduler claim (~1 µs of simulated
# work), so rotating the core once per claim would both distort the
# model toward implausibly fine sharing and cost a simulator handoff
# event per claim.  Fairness over a measurement window is preserved:
# a slice is ~tens of simulated µs, far below the millisecond windows.
_CORE_SLICE = 32
# Burst sizes (tuples a source emits / a scheduler thread drains per
# coalesced event) are governed by the engine's ChannelConfig — see
# repro.des.channels.  Each tuple in a burst still pays the full
# per-tuple cost (scan + pop sync + work + push), so simulated time is
# identical to moving one tuple at a time; batching only coalesces the
# simulator events.  DEFAULT_CHANNEL.batch_size (8) reproduces the
# historical _CLAIM_BATCH behaviour exactly.

# Vectorized locked-region path: a region whose locks can never be
# contended (every lock-using member operator is reachable from this
# region alone, so the port/source-thread serialization already makes
# the lock private) joins the burst fast path — the uncontended
# acquire/release pair reduces to ``lock_s`` of simulated time per
# acquisition plus an ``acquisitions`` tally, both of which batch.
# Flip this off to restore the per-tuple slow path (equivalence tests
# compare the two).
LOCKED_FAST = True

# The des.* counters DesEngine.run() publishes from the engine's own
# tallies (DesEngine._tallies()), with their descriptions.
_TALLY_METRICS = {
    "des.source_tuples": "tuples emitted by source regions",
    "des.sink_tuples": "tuples consumed at sinks (expected)",
    "des.queue_pushes": "tuples pushed into scheduler queues",
    "des.idle_scans": "scheduler scans that found no work",
    "des.backpressure_helps": (
        "consumer regions executed inline by a blocked producer"
    ),
    "des.wakeups": "parked scheduler threads woken by queue activity",
    "des.offered_tuples": "open-loop arrivals presented to source operators",
    "des.dropped_tuples": "open-loop arrivals shed at a full ingress queue",
    "des.batch_flushes": (
        "coalesced burst events flushed through batched channels"
    ),
}

# Processes may yield kernel Request objects or bare float delays.
_Req = Generator[object, object, None]


@dataclass(frozen=True)
class _RegionPlan:
    """Precomputed per-region execution constants.

    Everything about executing one entry tuple of a region that does
    not depend on simulation state — per-operator time deltas, lock
    objects, sink credit, push costs — is computed once at engine
    construction so the per-tuple generator only walks plain tuples.

    ``ops`` rows are ``(op_idx, dt, lock, sink_n)``; ``pushes`` rows
    are ``(queue, credit_key, credit_incr, cost_per_push)``.

    A region is ``fast`` when executing one entry tuple needs no
    per-operator bookkeeping at all: it emits at most one downstream
    tuple per entry tuple (unit selectivity, single push target) and
    either no member operator takes a lock, or every lock taken is
    *uncontendable* (``threads_reaching == 1``: the region's own
    serialization makes the lock private, so acquire/release is pure
    bookkeeping — ``lock_acq`` lists those locks and the burst path
    batches their ``acquisitions`` tally).  Such a region collapses to
    a single precomputed time delta (``flat_dt`` plus ``lock_s`` per
    private lock), an optional synchronous push (``push`` is
    ``(queue, queue_op, cost)``) and a sink-credit constant — one
    simulator event per executed burst.

    ``prof_ops``/``prof_bounds_src``/``prof_bounds_sched`` describe one
    executed tuple of a fast region as a cycle of attribution segments
    for sampled-accounting profiling: ``prof_ops[i]`` is the operator
    (or ``None`` for push-copy time) occupying the cycle up to
    cumulative offset ``prof_bounds_*[i]``.  The scheduler variant folds
    the scan + pop-synchronization cost into the first operator's
    segment, exactly as the fine-grained path merges the seeded
    ``pending`` delay into the first operator's timeout.

    ``burst_src``/``burst_sched`` are the batched channels' cost
    tables: ``burst_*[b]`` is the simulated span of one coalesced event
    carrying ``b`` tuples end-to-end (operator work + push copy, plus
    scan + pop synchronization on the scheduler variant), accumulated
    from the per-tuple cost so every tuple in a burst pays its full
    price.  ``max_burst_src``/``max_burst_sched`` are the channel's
    burst caps for this region — batch size further bounded by the
    flush timeout at this region's per-tuple cost (the tables stop
    there, so an out-of-range lookup is a bug, not a silent error).

    ``help_coarse``/``help_fine`` list the yields ``_region_work``
    makes for one entry tuple run inline by a backpressured producer
    (:meth:`DesEngine._push_with_help` replays them), unprofiled and
    with a profiler attached.  Both are ``None`` unless ``fast``.
    """

    ops: Tuple[Tuple[int, float, Optional[SimLock], float], ...]
    pushes: Tuple[Tuple[SimQueue, Tuple[int, int], float, float], ...]
    fast: bool
    flat_dt: float
    sink_total: float
    push: Optional[Tuple[SimQueue, int, float]]
    prof_ops: Optional[Tuple[Optional[int], ...]] = None
    prof_bounds_src: Optional[Tuple[float, ...]] = None
    prof_bounds_sched: Optional[Tuple[float, ...]] = None
    burst_src: Tuple[float, ...] = (0.0,)
    burst_sched: Tuple[float, ...] = (0.0,)
    max_burst_src: int = 1
    max_burst_sched: int = 1
    lock_acq: Tuple[SimLock, ...] = ()
    help_coarse: Optional["_Help"] = None
    help_fine: Optional["_Help"] = None


class _Help(NamedTuple):
    """What ``_region_work`` does for one tuple of a fast region, as a
    list of yields.

    Each step is ``(dt, sinks, locks, state)``: right before yielding
    ``dt`` the generator has added the sink credits ``sinks``, taken
    the locks ``locks`` (one acquisition each) and, with a profiler
    attached, published operator ``state``.  ``tail_sinks`` are the
    credits it adds after its last yield.  Delays use its float
    accumulation order.
    """

    steps: Tuple[
        Tuple[
            float, Tuple[float, ...], Tuple[SimLock, ...], Optional[int]
        ],
        ...,
    ]
    tail_sinks: Tuple[float, ...]


def _help_plan(
    ops: Tuple[Tuple[int, float, Optional[SimLock], float], ...],
    lock_s: float,
    push_cost: Optional[float],
    fine: bool,
) -> _Help:
    """Replay ``_region_work`` (seeded with ``lock_s``, the help path's
    port sync; ``fine`` as with a profiler attached) for one tuple of a
    fast region: unit push credit, and locks that never block."""
    steps = []
    sinks: List[float] = []  # credits since the latest yield
    locks: List[SimLock] = []
    state: Optional[int] = None

    def step(dt: float) -> None:
        steps.append((dt, tuple(sinks), tuple(locks), state))
        sinks.clear()
        locks.clear()

    pending = lock_s
    for op_idx, dt, lock, sink_n in ops:
        if fine:
            state = op_idx
        if lock is not None:
            if pending:
                step(pending)
                pending = 0.0
            locks.append(lock)
            step(dt + lock_s)
        else:
            pending += dt
            if fine:
                step(pending)
                pending = 0.0
        if sink_n:
            sinks.append(sink_n)
    state = None
    if push_cost is not None:
        step(pending + push_cost)
    elif pending:
        step(pending)
    return _Help(tuple(steps), tuple(sinks))


@dataclass(frozen=True)
class DesResult:
    """Throughput measurement from one DES run.

    ``offered_tuples_per_s``/``dropped_tuples``/``open_loop`` are only
    meaningful for open-loop runs (sources driven by an arrival
    schedule): *offered* counts arrivals presented to the sources
    during the window, *dropped* counts arrivals shed at a full ingress
    queue under the ``drop`` overflow policy.  For classic saturated
    runs they stay at their zero defaults.
    """

    sink_tuples_per_s: float
    source_tuples_per_s: float
    measured_window_s: float
    sink_tuples: float
    queue_occupancy: Tuple[Tuple[int, int], ...]
    thread_busy_fraction: Tuple[Tuple[str, float], ...] = ()
    deadlocked: bool = False
    offered_tuples_per_s: float = 0.0
    dropped_tuples: float = 0.0
    open_loop: bool = False

    @property
    def mean_utilization(self) -> float:
        """Average busy fraction over all threads (0 when unknown)."""
        if not self.thread_busy_fraction:
            return 0.0
        return left_sum(f for _n, f in self.thread_busy_fraction) / len(
            self.thread_busy_fraction
        )

    @property
    def offered_utilization(self) -> float:
        """Fraction of the offered load the PE actually admitted.

        1.0 means the PE kept up with the arrival schedule — low
        throughput then reflects low *offered load*, not contention.
        Values below 1.0 mean arrivals outpaced the PE (queues filled,
        tuples dropped or the source stalled behind backpressure).
        Returns 1.0 for closed-loop runs, where the notion is vacuous.
        """
        if not self.open_loop or self.offered_tuples_per_s <= 0.0:
            return 1.0
        return min(
            1.0, self.source_tuples_per_s / self.offered_tuples_per_s
        )

    @property
    def underloaded(self) -> bool:
        """True when an open-loop PE kept up with a light arrival
        schedule: throughput is offered-load-bound, so contention
        inferences from low numbers would be wrong."""
        return (
            self.open_loop
            and self.offered_utilization >= 0.95
            and self.mean_utilization < 0.5
        )


class DesEngine:
    """One configured PE, executable under the DES kernel."""

    def __init__(
        self,
        graph: StreamGraph,
        machine: MachineProfile,
        placement: QueuePlacement,
        scheduler_threads: int,
        queue_capacity: int = 16,
        obs: Optional[Obs] = None,
        arrivals: Optional[Dict[int, Iterator[float]]] = None,
        overflow: str = "block",
        channel: Optional[ChannelConfig] = None,
        locked_fast: Optional[bool] = None,
    ) -> None:
        """``arrivals`` maps source operator index -> an **infinite**
        iterator of absolute arrival times (simulation seconds), making
        those sources *open-loop*: they admit one tuple per scheduled
        arrival instead of spinning saturated.  The iterator must be
        unbounded — the kernel's deadlock detector cannot distinguish an
        exhausted schedule from a wedged PE.  ``overflow`` selects what
        an open-loop source does when its ingress queue is full:
        ``"block"`` (stall behind backpressure, the closed-loop
        behaviour) or ``"drop"`` (shed the arrival and count it in
        ``des.dropped_tuples``).  ``channel`` configures the batched
        channels (burst size, flush timeout, prefetch — see
        :class:`~repro.des.channels.ChannelConfig`);
        ``None`` means :data:`~repro.des.channels.DEFAULT_CHANNEL`,
        byte-compatible with historical runs.  ``locked_fast`` opts a
        region with only uncontendable locks into the burst fast path
        (default: the module-level :data:`LOCKED_FAST` flag).
        """
        if scheduler_threads < 0:
            raise ValueError(
                f"scheduler_threads must be >= 0, got {scheduler_threads}"
            )
        if overflow not in ("block", "drop"):
            raise ValueError(
                f"overflow must be 'block' or 'drop', got {overflow!r}"
            )
        self.graph = graph
        self.machine = machine
        self.placement = placement
        self.scheduler_threads = scheduler_threads
        self.queue_capacity = queue_capacity
        self.channel = channel if channel is not None else DEFAULT_CHANNEL
        self.locked_fast = (
            LOCKED_FAST if locked_fast is None else locked_fast
        )
        self.decomposition = decompose(graph, placement)

        self.sim = Simulator()
        self._queues: Dict[int, SimQueue] = {
            idx: SimQueue(capacity=queue_capacity, name=f"q{idx}")
            for idx in placement
        }
        self._queue_order: List[int] = sorted(self._queues)
        self._op_locks: Dict[int, SimLock] = {
            op.index: SimLock(name=f"lock:{op.name}")
            for op in graph
            if op.uses_lock
        }
        # Port protection: at most one thread executes a queued region
        # at a time (§2.1's scheduler queues serialize access to the
        # operator's input port), matching the analytical model's
        # serial-region assumption.
        self._region_locks: Dict[int, SimLock] = {
            idx: SimLock(name=f"port:{idx}") for idx in placement
        }
        self._core_pool = SimQueue(
            capacity=max(1, machine.logical_cores), name="cores"
        )
        self._push_credit: Dict[Tuple[int, int], float] = {}
        self._sink_count = 0.0
        self._source_count = 0.0
        self._offered_count = 0.0
        self._dropped_count = 0.0
        self._arrivals = dict(arrivals) if arrivals else {}
        self._overflow_drop = overflow == "drop"
        for idx in self._arrivals:
            if idx >= len(graph) or not graph.operator(idx).is_source:
                raise ValueError(
                    f"arrivals key {idx} is not a source operator"
                )
        self._busy_s: Dict[str, float] = {}
        self._region_by_entry: Dict[int, Region] = {
            r.entry: r for r in self.decomposition.regions
        }
        self._plans: Dict[int, _RegionPlan] = {
            r.entry: self._build_plan(r)
            for r in self.decomposition.regions
        }
        # The paper's per-thread state variable: threads publish the
        # operator they are executing; a profiler process may snapshot.
        self.registry = ThreadRegistry()
        self.profiler: Optional[SnapshotProfiler] = None
        self._profiler_period: Optional[float] = None
        self._profiler_sampled = True
        self._started = False
        # Event tallies with no DesResult field; like the counts above
        # they are plain attributes, published to the hub by run().
        self._idle_scans = 0
        self._helps = 0
        self._wakeups = 0
        self._batch_flushes = 0
        hub = ensure_hub(obs)
        self._hub = hub
        reg = hub.registry
        self._m_runs = reg.counter(
            "des.runs", "DES measurement runs completed"
        )
        self._m_tallies = {
            name: reg.counter(name, doc)
            for name, doc in _TALLY_METRICS.items()
        }
        self._m_parked = reg.gauge(
            "des.parked_threads",
            "scheduler threads parked on empty queues when the run ended",
        )
        reg.gauge(
            "des.batch_size",
            "configured channel batch size (tuples per coalesced event)",
        ).set(float(self.channel.batch_size))
        self._published = self._tallies()

    # ------------------------------------------------------------------
    # process bodies
    # ------------------------------------------------------------------
    def _build_plan(self, region: Region) -> _RegionPlan:
        """Precompute the per-tuple execution constants of a region."""
        machine = self.machine
        graph = self.graph
        scale = 1.0 / region.entry_rate if region.entry_rate > 0 else 0.0
        ops = []
        # Left-to-right totals of the executed operators' dt and sink
        # counts, as repro.sums.left_sum would take them.
        flat_dt = sink_total = 0
        for op_idx, rate in region.op_rates:
            n = rate * scale
            if n <= 0.0:
                continue
            op = graph.operator(op_idx)
            dt = n * (
                machine.flop_time(op.cost_flops)
                + machine.call_overhead_s
                + machine.submit_overhead_s * op.selectivity
            )
            sink = n if op.is_sink else 0.0
            ops.append((op_idx, dt, self._op_locks.get(op_idx), sink))
            flat_dt += dt
            sink_total += sink
        push_cost = (
            machine.copy_time(graph.tuple_spec.payload_bytes)
            + machine.lock_uncontended_s
        )
        pushes = tuple(
            (
                self._queues[queue_op],
                (region.entry, queue_op),
                push_rate * scale,
                push_cost,
            )
            for queue_op, push_rate in region.push_rates
        )
        ops_t = tuple(ops)
        lock_s = machine.lock_uncontended_s
        locks = tuple(
            lock for _i, _dt, lock, _s in ops_t if lock is not None
        )
        push_ok = not pushes or (
            len(pushes) == 1 and pushes[0][2] == 1.0
        )
        # A lock is uncontendable when this region is the only one
        # whose execution reaches the operator: region serialization
        # (the source thread / the queue port) already makes it
        # private, so acquire/release never blocks and reduces to
        # ``lock_s`` of time plus an ``acquisitions`` tally — both of
        # which the burst tables batch (the vectorized locked path).
        uncontended = all(
            self.decomposition.threads_reaching(op_idx) <= 1
            for op_idx, _dt, lock, _s in ops_t
            if lock is not None
        )
        fast = push_ok and (
            not locks or (self.locked_fast and uncontended)
        )
        lock_acq = locks if fast else ()
        # Sampled-accounting cycles: one executed tuple laid out as
        # consecutive attribution segments, mirroring where the
        # fine-grained path would be caught at each instant.  Locked
        # operators carry their uncontended acquire cost, exactly as
        # the per-tuple path folds ``lock_s`` into the locked
        # operator's own timeout.
        prof_ops: Optional[Tuple[Optional[int], ...]] = None
        prof_bounds_src: Optional[Tuple[float, ...]] = None
        prof_bounds_sched: Optional[Tuple[float, ...]] = None
        if fast:
            seg_ops: List[Optional[int]] = [i for i, _dt, _l, _s in ops_t]
            seg_durs: List[float] = [
                dt if lk is None else dt + lock_s
                for _i, dt, lk, _s in ops_t
            ]
            if pushes:
                # Push-copy time is attributed to no operator, as the
                # fine-grained path publishes idle before pushing.
                seg_ops.append(None)
                seg_durs.append(pushes[0][3])
            if seg_durs and left_sum(seg_durs) > 0.0:
                # The scheduler path merges scan + pop-sync cost into
                # the first segment (the fine-grained path seeds it
                # into the first operator's pending timeout).
                head_extra = machine.scan_time(
                    len(self._queue_order)
                ) + machine.lock_uncontended_s
                bounds_src: List[float] = []
                bounds_sched: List[float] = []
                acc = 0.0
                for d in seg_durs:
                    acc += d
                    bounds_src.append(acc)
                    bounds_sched.append(acc + head_extra)
                prof_ops = tuple(seg_ops)
                prof_bounds_src = tuple(bounds_src)
                prof_bounds_sched = tuple(bounds_sched)
        # Batched-channel cost tables: burst_*[b] = simulated span of
        # one coalesced event carrying b tuples, accumulated from the
        # per-tuple cost (numpy running sum — identical arithmetic to
        # summing tuple by tuple, so a burst of b costs exactly what b
        # single-tuple events would).  The channel's flush timeout caps
        # the burst wherever carrying one more tuple would stretch the
        # event past the flush horizon.
        channel = self.channel
        max_src = 1
        max_sched = 1
        burst_src: Tuple[float, ...] = (0.0, flat_dt)
        burst_sched: Tuple[float, ...] = (0.0, flat_dt)
        if fast:
            push_cost_fast = pushes[0][3] if pushes else 0.0
            fast_dt = flat_dt
            if lock_acq:
                fast_dt = flat_dt + lock_s * len(lock_acq)
            tup_src = fast_dt + push_cost_fast
            tup_sched = (
                machine.scan_time(len(self._queue_order))
                + machine.lock_uncontended_s
                + fast_dt
                + push_cost_fast
            )
            max_src = channel.max_burst(tup_src)
            max_sched = channel.max_burst(tup_sched)
            burst_src = (
                0.0,
                *np.add.accumulate(
                    np.full(max_src, tup_src, dtype=np.float64)
                ).tolist(),
            )
            burst_sched = (
                0.0,
                *np.add.accumulate(
                    np.full(max_sched, tup_sched, dtype=np.float64)
                ).tolist(),
            )
        help_push = pushes[0][3] if pushes else None
        return _RegionPlan(
            ops=ops_t,
            pushes=pushes,
            fast=fast,
            flat_dt=flat_dt,
            sink_total=sink_total,
            push=(
                (pushes[0][0], pushes[0][1][1], pushes[0][3])
                if fast and pushes
                else None
            ),
            prof_ops=prof_ops,
            prof_bounds_src=prof_bounds_src,
            prof_bounds_sched=prof_bounds_sched,
            burst_src=burst_src,
            burst_sched=burst_sched,
            max_burst_src=max_src,
            max_burst_sched=max_sched,
            lock_acq=lock_acq,
            help_coarse=(
                _help_plan(ops_t, lock_s, help_push, False) if fast else None
            ),
            help_fine=(
                _help_plan(ops_t, lock_s, help_push, True) if fast else None
            ),
        )

    def _region_work(
        self,
        region: Region,
        count_source: bool,
        thread_name: str = "?",
        pending: float = 0.0,
    ) -> _Req:
        """Execute one entry tuple's worth of a region.

        Consecutive operator timeouts accumulate into ``pending`` and
        flush as one event at lock/queue boundaries (or at the end),
        unless a profiler is attached — snapshot profiling needs time
        to advance per operator so samples attribute correctly.
        Callers may seed ``pending`` with a delay of their own (e.g.
        the scheduler's pop synchronization cost) to merge it into the
        region's first timeout.
        """
        plan = self._plans[region.entry]
        sim = self.sim
        busy_s = self._busy_s
        fine_grained = self.profiler is not None
        state = self.registry.state(thread_name) if fine_grained else None
        lock_s = self.machine.lock_uncontended_s
        for op_idx, dt, lock, sink_n in plan.ops:
            if state is not None:
                state.current_operator = op_idx
            if lock is not None:
                if pending:
                    busy_s[thread_name] = (
                        busy_s.get(thread_name, 0.0) + pending
                    )
                    yield pending
                    pending = 0.0
                if not sim.acquire_nowait(lock):
                    yield Acquire(lock)
                dt += lock_s
                busy_s[thread_name] = busy_s.get(thread_name, 0.0) + dt
                yield dt
                sim.release_nowait(lock)
            else:
                pending += dt
                if fine_grained:
                    busy_s[thread_name] = (
                        busy_s.get(thread_name, 0.0) + pending
                    )
                    yield pending
                    pending = 0.0
            if sink_n:
                self._sink_count += sink_n
        if count_source:
            self._source_count += 1.0
        if state is not None:
            state.current_operator = None
        push_credit = self._push_credit
        for queue, credit_key, credit_incr, push_cost in plan.pushes:
            credit = push_credit.get(credit_key, 0.0) + credit_incr
            while credit >= 1.0:
                pending += push_cost
                busy_s[thread_name] = (
                    busy_s.get(thread_name, 0.0) + pending
                )
                yield pending
                pending = 0.0
                if not self.sim.put_nowait(queue, _TOKEN):
                    yield from self._push_with_help(
                        credit_key[1], queue, thread_name
                    )
                credit -= 1.0
            push_credit[credit_key] = credit
        if pending:
            busy_s[thread_name] = busy_s.get(thread_name, 0.0) + pending
            yield pending

    def _push_with_help(
        self, queue_op: int, queue: SimQueue, thread_name: str = "?"
    ) -> _Req:
        """Push one tuple, executing the consumer inline on backpressure.

        If every producer simply blocked on a full queue while holding a
        core, a PE could deadlock (e.g. all scheduler threads blocked
        pushing into a full sink queue that only scheduler threads can
        drain).  Real streaming runtimes resolve backpressure by letting
        the pushing thread execute downstream work; we do the same:
        while the target queue is full, pop one tuple and run the
        consumer region ourselves, then enqueue our own tuple.

        The emptiness/fullness checks are authoritative because the
        kernel handles a yielded request synchronously: no other process
        can run between our check and the corresponding Put.

        A ``fast`` consumer replays its :class:`_Help` steps instead of
        a :meth:`_region_work` generator; the kernel elides each step's
        resumption when no other event can observe it.
        """
        consumer = self._region_by_entry[queue_op]
        plan = self._plans[queue_op]
        sim = self.sim
        busy_s = self._busy_s
        fine = self.profiler is not None
        state = self.registry.state(thread_name) if fine else None
        help_ = plan.help_fine if fine else plan.help_coarse
        while queue.is_full:
            port = self._region_locks[queue_op]
            if not sim.acquire_nowait(port):
                yield Acquire(port)
            if queue.is_empty:
                # Another thread drained it while we waited.
                sim.release_nowait(port)
                break
            sim.pop_nowait(queue)
            self._helps += 1
            if help_ is None:
                yield from self._region_work(
                    consumer,
                    count_source=False,
                    thread_name=thread_name,
                    pending=self.machine.lock_uncontended_s,
                )
                sim.release_nowait(port)
                continue
            # A fast consumer replays _region_work's yields inline.
            for dt, sinks, locks, op_idx in help_.steps:
                for sink_n in sinks:
                    self._sink_count += sink_n
                for lk in locks:
                    lk.acquisitions += 1
                if state is not None:
                    state.current_operator = op_idx
                busy_s[thread_name] = busy_s.get(thread_name, 0.0) + dt
                yield dt
            for sink_n in help_.tail_sinks:
                self._sink_count += sink_n
            if state is not None:
                state.current_operator = None
            push = plan.push
            if push is not None:
                pqueue, pqueue_op, _cost = push
                if not sim.put_nowait(pqueue, _TOKEN):
                    yield from self._push_with_help(
                        pqueue_op, pqueue, thread_name
                    )
            sim.release_nowait(port)
        if not self.sim.put_nowait(queue, _TOKEN):
            yield Put(queue, _TOKEN)  # pragma: no cover - defensive

    def _source_thread(self, region: Region) -> _Req:
        source_op = self.graph.operator(region.entry)
        sim = self.sim
        name = f"src:{region.entry}"
        core_pool = self._core_pool
        busy_s = self._busy_s
        plan = self._plans[region.entry]
        fast_ok = self.profiler is None or self._profiler_sampled
        # With a sampling profiler attached, merged advances publish
        # their per-operator composition so snapshots still attribute.
        publish = (
            self.registry
            if self.profiler is not None and fast_ok and plan.fast
            else None
        )
        prof_bounds = plan.prof_bounds_src
        prof_ops = plan.prof_ops
        min_interval = (
            1.0 / source_op.max_rate
            if source_op.max_rate is not None
            else 0.0
        )
        next_emit = sim.now
        slice_left = 0
        while True:
            if min_interval:
                # External arrival pacing (e.g. NIC line rate): wait
                # until the next tuple is due before competing for a
                # core.
                wait = next_emit - sim.now
                if wait > 0:
                    if slice_left > 0:
                        # Never hold a core across an idle wait.
                        slice_left = 0
                        sim.put_nowait(core_pool, _TOKEN)
                    yield wait
                next_emit = max(next_emit + min_interval, sim.now)
            if slice_left <= 0:
                if core_pool.items:
                    # Inlined pop_nowait (no putters/parked on cores).
                    core_pool.items.popleft()
                    core_pool.total_got += 1
                else:
                    yield Get(core_pool)
                slice_left = _CORE_SLICE
            if plan.fast and fast_ok:
                # One event per emitted burst: operator work and push
                # copies advance together (burst_src cost table), then
                # the enqueues happen synchronously.  A paced source
                # emits one tuple per due time; an unpaced one emits a
                # channel-batch burst per event.
                b = (
                    1
                    if min_interval
                    else min(plan.max_burst_src, slice_left)
                )
                slice_left -= b
                dt = plan.burst_src[b]
                self._batch_flushes += 1
                if publish is not None and prof_bounds is not None:
                    publish.set_interval(
                        name, sim.now, prof_bounds, prof_ops, b
                    )
                push = plan.push
                if push is not None:
                    queue, queue_op, _push_cost = push
                    busy_s[name] = busy_s.get(name, 0.0) + dt
                    yield dt
                    for _ in range(b):
                        if not sim.put_nowait(queue, _TOKEN):
                            yield from self._push_with_help(
                                queue_op, queue, name
                            )
                elif dt:
                    busy_s[name] = busy_s.get(name, 0.0) + dt
                    yield dt
                if plan.sink_total:
                    self._sink_count += plan.sink_total * b
                for lk in plan.lock_acq:
                    lk.acquisitions += b
                self._source_count += b
            else:
                slice_left -= 1
                yield from self._region_work(
                    region, count_source=True, thread_name=name
                )
            if slice_left <= 0:
                # As in _scheduler_thread: rotate the core only when
                # someone is waiting for it.
                if core_pool.getters:
                    sim.put_nowait(core_pool, _TOKEN)
                else:
                    slice_left = _CORE_SLICE

    def _open_loop_source_thread(
        self, region: Region, arrivals: Iterator[float]
    ) -> _Req:
        """Source driven by an external arrival schedule (open loop).

        One iteration per scheduled arrival: sleep until the arrival is
        due (never holding a core across the wait), then admit the
        tuple — acquire a core, execute the source's manual region and
        push downstream.  Under the ``drop`` overflow policy an arrival
        that finds its ingress queue full is shed immediately and
        counted, modelling ingress load shedding; under ``block`` the
        source stalls behind backpressure exactly like the saturated
        path (draining the consumer inline via ``_push_with_help`` so
        the PE cannot wedge).

        A slow schedule leaves the thread parked on a future timestamp
        rather than spinning, so underloaded PEs burn no simulated
        CPU — which is what makes offered-load utilization measurable.

        Under ``block`` the fast path coalesces the due backlog into
        one burst per event, capped exactly like the saturated path
        (``min(max_burst, slice_left)``); an arrival counts as due when
        it lands by its own processing slot within the burst, since a
        busy source keeps processing while later arrivals stream in.
        When the schedule outruns the PE this reproduces the saturated
        source's event structure — and therefore its timing — so a
        saturating open-loop schedule yields the same measurements (and
        the same adaptation decisions) as the classic closed-loop run.
        ``drop`` keeps strict per-arrival admission: each arrival's
        shed check must see the queue state at its own admission
        instant.  A source holding no core sheds a run of arrivals that
        provably meet a full ingress in one event (:meth:`_shed_run`),
        with the same counts and timing.
        """
        sim = self.sim
        name = f"src:{region.entry}"
        core_pool = self._core_pool
        busy_s = self._busy_s
        plan = self._plans[region.entry]
        fast_ok = self.profiler is None or self._profiler_sampled
        publish = (
            self.registry
            if self.profiler is not None and fast_ok and plan.fast
            else None
        )
        prof_bounds = plan.prof_bounds_src
        prof_ops = plan.prof_ops
        drop = self._overflow_drop
        ingress = tuple(q for q, _key, _incr, _cost in plan.pushes)
        # Nearly every source region pushes into one queue: check it
        # directly instead of scanning a tuple per arrival.
        single = ingress[0] if len(ingress) == 1 else None
        fast = plan.fast and fast_ok
        burst_src = plan.burst_src
        max_burst = plan.max_burst_src
        push = plan.push
        sink_total = plan.sink_total
        lock_acq = plan.lock_acq
        slice_left = 0
        arrivals = iter(arrivals)
        pending: Optional[float] = None
        # Set when a coalesced drop run leaves the next arrival's wake
        # already yielded (see _shed_run).
        arrived = False
        while True:
            if pending is not None:
                due, pending = pending, None
            else:
                try:
                    due = next(arrivals)
                except StopIteration:  # pragma: no cover - infinite contract
                    return
            if arrived:
                arrived = False
            else:
                wait = due - sim.now
                if wait > 0:
                    if slice_left > 0:
                        # Never hold a core across an idle wait.
                        slice_left = 0
                        sim.put_nowait(core_pool, _TOKEN)
                    yield wait
            self._offered_count += 1.0
            if drop and (
                len(single.items) >= single.capacity
                if single is not None
                else any(q.is_full for q in ingress)
            ):
                # Ingress shed: the arrival never enters the PE.
                self._dropped_count += 1.0
                if slice_left <= 0:
                    pending, wake = self._shed_run(arrivals)
                    if wake is not None:
                        yield wake
                        arrived = True
                continue
            if slice_left <= 0:
                if core_pool.items:
                    core_pool.items.popleft()
                    core_pool.total_got += 1
                else:
                    yield Get(core_pool)
                slice_left = _CORE_SLICE
            if fast:
                b = 1
                if not drop:
                    # Admit the backlog as one burst (see above).  A
                    # busy source keeps processing while later arrivals
                    # land, so an arrival joins the burst when it is due
                    # by its own processing slot — the instant the
                    # already-committed ``b`` tuples finish
                    # (``burst_src[b]`` from now) — not merely when it
                    # is due at the burst's start.  Without the
                    # lookahead a saturating schedule opens with
                    # undersized bursts (nothing is due yet at t=0) and
                    # the transient never matches the closed-loop event
                    # structure.
                    now = sim.now
                    b_max = max_burst if max_burst < slice_left else slice_left
                    while b < b_max:
                        try:
                            nxt = next(arrivals)
                        except StopIteration:  # pragma: no cover
                            break
                        if nxt > now + burst_src[b]:
                            pending = nxt
                            break
                        b += 1
                        self._offered_count += 1.0
                slice_left -= b
                dt = burst_src[b]
                self._batch_flushes += 1
                if publish is not None and prof_bounds is not None:
                    publish.set_interval(
                        name, sim.now, prof_bounds, prof_ops, b
                    )
                if push is not None:
                    queue, queue_op, _push_cost = push
                    busy_s[name] = busy_s.get(name, 0.0) + dt
                    yield dt
                    for _ in range(b):
                        if not sim.put_nowait(queue, _TOKEN):
                            yield from self._push_with_help(
                                queue_op, queue, name
                            )
                elif dt:
                    busy_s[name] = busy_s.get(name, 0.0) + dt
                    yield dt
                if sink_total:
                    self._sink_count += sink_total * b
                for lk in lock_acq:
                    lk.acquisitions += b
                self._source_count += b
            else:
                slice_left -= 1
                yield from self._region_work(
                    region, count_source=True, thread_name=name
                )
            if slice_left <= 0 and core_pool.getters:
                sim.put_nowait(core_pool, _TOKEN)
            elif slice_left <= 0:
                slice_left = _CORE_SLICE

    def _shed_run(
        self, arrivals: Iterator[float]
    ) -> Tuple[Optional[float], Optional[WakeAt]]:
        """Shed, inline, the arrivals that would meet a full ingress.

        Called by a ``drop`` source that just shed an arrival while
        holding no core.  Until the next pending event nothing can
        change its ingress queue, so every following arrival whose
        chained dispatch time ``t + (due - t)`` falls strictly before
        that event (and within the ``run_until`` horizon, so it counts
        in the same window) is shed exactly as its own event would
        have shed it; they are counted in bulk with a virtual clock
        ``t`` that repeats the per-arrival chain's arithmetic.  Returns
        the first arrival past the run and, when the clock moved, the
        :class:`WakeAt` that dispatches it at the float time the chain
        would have produced; the caller then presents that arrival
        without waiting again.  With ``wake`` ``None`` the caller waits
        for it as usual.
        """
        sim = self.sim
        bound = sim.next_event_time
        horizon = sim.horizon
        t = start = sim.now
        n = 0
        wake = None
        for due in arrivals:
            wait = due - t
            if wait > 0:
                t_next = t + wait
                if not (t_next < bound and t_next <= horizon):
                    if t != start:
                        wake = WakeAt(t_next)
                    break
                t = t_next
            n += 1
        else:  # pragma: no cover - infinite contract
            due = None
        if n:
            self._offered_count += n
            self._dropped_count += n
        return due, wake

    def _scheduler_thread(self, thread_id: int) -> _Req:
        name = f"sched:{thread_id}"
        sim = self.sim
        order = self._queue_order
        queues = self._queues
        core_pool = self._core_pool
        busy_s = self._busy_s
        n = len(order)
        scan = self.machine.scan_time(n)
        lock_s = self.machine.lock_uncontended_s
        prefetch = self.channel.prefetch
        fast_ok = self.profiler is None or self._profiler_sampled
        # Interval publication keeps snapshot attribution working on
        # merged advances (see _RegionPlan.prof_*).
        publish = (
            self.registry
            if self.profiler is not None and fast_ok
            else None
        )
        # Scan probes resolved once to (queue, port, region, plan)
        # rows; the doubled list turns a rotated scan into straight
        # indexing with no per-probe dict lookups or modulo.
        slots = [
            (
                queues[idx],
                self._region_locks[idx],
                self._region_by_entry[idx],
                self._plans[idx],
            )
            for idx in order
        ]
        slots2 = slots + slots
        # One immutable park request, reused forever: the idle path
        # allocates nothing.
        park = ParkUntilNonEmpty(tuple(queues[idx] for idx in order))
        cursor = thread_id % n  # stagger round-robin start positions
        slice_left = 0
        while True:
            if slice_left <= 0:
                if core_pool.items:
                    # Inlined pop_nowait: the core pool never has
                    # blocked putters or parked consumers.
                    core_pool.items.popleft()
                    core_pool.total_got += 1
                else:
                    yield Get(core_pool)
                slice_left = _CORE_SLICE
            claim = None
            executing_elsewhere = False
            for pos in range(n):
                row = slots2[cursor + pos]
                if row[0].items:
                    if row[1].held_by is None:
                        # Non-empty, nobody executing its region: claim.
                        claim = row
                        cursor = (cursor + pos + 1) % n
                        break
                    executing_elsewhere = True
            if claim is None:
                self._idle_scans += 1
                # An idle thread surrenders the rest of its timeslice.
                slice_left = 0
                sim.put_nowait(core_pool, _TOKEN)
                if executing_elsewhere:
                    # Work exists but its port is held: the executing
                    # thread will rescan when done; retry shortly.
                    # (Parking here could livelock: the kernel would
                    # wake us immediately on the non-empty queue.)
                    # The failed scan's cost folds into the backoff.
                    yield scan + _IDLE_BACKOFF_S
                else:
                    # Every queue empty: park until the next push.
                    yield park
                    self._wakeups += 1
                continue
            # The scan checked the port synchronously, so the claim
            # cannot fail and nothing has to yield: take port and
            # tuple immediately.  The scan's cost (charged as busy --
            # a scan that found work is work-finding, not starvation)
            # merges into the region's first time advance.
            queue, port, region, plan = claim
            sim.acquire_nowait(port)
            sim.pop_nowait(queue)
            if fast_ok and plan.fast:
                # Whole-claim fast path: scan + pop sync + operator
                # work + push copy advance as ONE simulator event
                # (burst_sched cost table), then the downstream
                # enqueues happen synchronously.  The thread drains a
                # burst while it holds the port (each tuple pays the
                # full per-tuple cost); with channel prefetch it may
                # drain further batches from the claimed port before
                # rescanning — fewer events, at the price of strict
                # round-robin work-finding fidelity.
                bursts_left = prefetch
                while True:
                    k = len(queue.items) + 1
                    if k > plan.max_burst_sched:
                        k = plan.max_burst_sched
                    if k > slice_left:
                        k = slice_left
                    for _ in range(k - 1):
                        sim.pop_nowait(queue)
                    slice_left -= k
                    dt = plan.burst_sched[k]
                    self._batch_flushes += 1
                    if (
                        publish is not None
                        and plan.prof_bounds_sched is not None
                    ):
                        publish.set_interval(
                            name,
                            sim.now,
                            plan.prof_bounds_sched,
                            plan.prof_ops,
                            k,
                        )
                    push = plan.push
                    if push is not None:
                        pqueue, pqueue_op, _push_cost = push
                        busy_s[name] = busy_s.get(name, 0.0) + dt
                        yield dt
                        for _ in range(k):
                            if not sim.put_nowait(pqueue, _TOKEN):
                                yield from self._push_with_help(
                                    pqueue_op, pqueue, name
                                )
                    else:
                        busy_s[name] = busy_s.get(name, 0.0) + dt
                        yield dt
                    if plan.sink_total:
                        self._sink_count += plan.sink_total * k
                    for lk in plan.lock_acq:
                        lk.acquisitions += k
                    if (
                        bursts_left <= 0
                        or slice_left <= 0
                        or not queue.items
                    ):
                        break
                    bursts_left -= 1
                    sim.pop_nowait(queue)
            else:
                slice_left -= 1
                yield from self._region_work(
                    region,
                    count_source=False,
                    thread_name=name,
                    pending=scan + lock_s,
                )
            sim.release_nowait(port)
            if slice_left <= 0:
                # Timeslice expired: hand the core to a waiter; with
                # nobody waiting, keep it for another slice with no
                # handoff event at all.
                if core_pool.getters:
                    sim.put_nowait(core_pool, _TOKEN)
                else:
                    slice_left = _CORE_SLICE

    # ------------------------------------------------------------------
    def attach_profiler(
        self, period_s: float = 1.0e-4, sampled: bool = True
    ) -> SnapshotProfiler:
        """Attach the paper's profiler thread: a process that snapshots
        every registered thread's current operator each ``period_s``.

        Must be called before :meth:`start`.  Returns the profiler whose
        counters accumulate for the run's lifetime.

        With ``sampled=True`` (the default) the engine keeps the
        coalesced fast path: merged time advances publish their
        analytic per-operator composition as sampled-accounting
        intervals, which snapshots resolve positionally — statistically
        equivalent attribution at fast-path cost.  ``sampled=False``
        restores fine-grained per-operator time advancement (one event
        per operator), used to cross-validate the sampled accounting.

        Calling again with the *same* parameters returns the existing
        profiler; a differing ``period_s`` or ``sampled`` raises
        ``ValueError`` instead of being silently ignored.
        """
        if self._started:
            raise RuntimeError("attach_profiler must precede start()")
        if not 0 < period_s < math.inf:
            raise ValueError(f"period_s must be finite and > 0: {period_s}")
        if self.profiler is not None:
            if period_s != self._profiler_period:
                raise ValueError(
                    f"profiler already attached with period_s="
                    f"{self._profiler_period!r}; cannot re-attach with "
                    f"period_s={period_s!r}"
                )
            if sampled != self._profiler_sampled:
                raise ValueError(
                    f"profiler already attached with sampled="
                    f"{self._profiler_sampled!r}; cannot re-attach with "
                    f"sampled={sampled!r}"
                )
            return self.profiler
        self.profiler = SnapshotProfiler(self.registry, obs=self._hub)

        def profiler_proc():
            while True:
                yield period_s
                self.profiler.sample(self.sim.now)

        self._profiler_period = period_s
        self._profiler_sampled = sampled
        self._profiler_proc = profiler_proc
        return self.profiler

    def start(self) -> None:
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        for _ in range(self._core_pool.capacity):
            self._core_pool.items.append(_TOKEN)
        self.registry.register("?")
        for region in self.decomposition.source_regions:
            self.registry.register(f"src:{region.entry}")
            name = f"src-thread:{region.entry}"
            schedule = self._arrivals.get(region.entry)
            if schedule is not None:
                self.sim.spawn(
                    self._open_loop_source_thread(region, schedule),
                    name=name,
                )
            else:
                self.sim.spawn(self._source_thread(region), name=name)
        if self._queues:
            for tid in range(self.scheduler_threads):
                self.registry.register(f"sched:{tid}")
                self.sim.spawn(
                    self._scheduler_thread(tid), name=f"sched:{tid}"
                )
        if self.profiler is not None:
            self.sim.spawn(self._profiler_proc(), name="profiler")

    def _tallies(self) -> Dict[str, float]:
        """The current value of every tally a ``des.*`` counter
        publishes.  Queue pushes are the scheduler queues' ``total_put``
        (the core pool is not a scheduler queue)."""
        return {
            "des.source_tuples": self._source_count,
            "des.sink_tuples": self._sink_count,
            "des.queue_pushes": sum(
                q.total_put for q in self._queues.values()
            ),
            "des.idle_scans": self._idle_scans,
            "des.backpressure_helps": self._helps,
            "des.wakeups": self._wakeups,
            "des.offered_tuples": self._offered_count,
            "des.dropped_tuples": self._dropped_count,
            "des.batch_flushes": self._batch_flushes,
        }

    # ------------------------------------------------------------------
    def run(
        self, warmup_s: float = 0.002, measure_s: float = 0.01
    ) -> DesResult:
        """Warm up, then measure throughput over ``measure_s``.

        If every process wedges (all blocked with no pending event —
        see :meth:`Simulator.run_until`), the returned result carries
        ``deadlocked=True`` instead of silently reporting a deflated
        throughput over a window in which nothing ran.

        The ``des.*`` hub counters are published here, from the
        engine's own tallies: the warm-up's just before the window
        resets them, the window's at the end.  ``des.parked_threads``
        is set to the scheduler threads parked when the run ends.
        """

        def publish() -> None:
            # Each tally's growth since the last publication.
            tallies = self._tallies()
            for name, now in tallies.items():
                then = self._published[name]
                if now != then:
                    self._m_tallies[name].inc(now - then)
            self._published = tallies

        if not (0 <= warmup_s < math.inf and 0 < measure_s < math.inf):
            raise ValueError(
                "need a finite warmup_s >= 0 and measure_s > 0, got "
                f"{warmup_s!r} and {measure_s!r}"
            )
        if not self._started:
            self.start()
        self.sim.run_until(self.sim.now + warmup_s)
        publish()
        self._sink_count = 0.0
        self._source_count = 0.0
        self._offered_count = 0.0
        self._dropped_count = 0.0
        self._published = self._tallies()
        self._busy_s.clear()
        start = self.sim.now
        self.sim.run_until(start + measure_s)
        publish()
        # A scheduler thread parks on every queue at once.
        queues = self._queues.values()
        self._m_parked.set(max((len(q.parked) for q in queues), default=0))
        window = self.sim.now - start
        occupancy = tuple(
            (idx, len(q)) for idx, q in sorted(self._queues.items())
        )
        busy = tuple(
            (name, min(1.0, t / window) if window else 0.0)
            for name, t in sorted(self._busy_s.items())
        )
        self._m_runs.inc()
        return DesResult(
            sink_tuples_per_s=self._sink_count / window if window else 0.0,
            source_tuples_per_s=(
                self._source_count / window if window else 0.0
            ),
            measured_window_s=window,
            sink_tuples=self._sink_count,
            queue_occupancy=occupancy,
            thread_busy_fraction=busy,
            deadlocked=self.sim.deadlocked,
            offered_tuples_per_s=(
                self._offered_count / window if window else 0.0
            ),
            dropped_tuples=self._dropped_count,
            open_loop=bool(self._arrivals),
        )


def measure_throughput(
    graph: StreamGraph,
    machine: MachineProfile,
    placement: QueuePlacement,
    scheduler_threads: int,
    warmup_s: float = 0.002,
    measure_s: float = 0.01,
    queue_capacity: int = 16,
    obs: Optional[Obs] = None,
    arrivals: Optional[Dict[int, Iterator[float]]] = None,
    overflow: str = "block",
    channel: Optional[ChannelConfig] = None,
) -> DesResult:
    """Convenience wrapper: build, run and measure one configuration.

    ``arrivals``/``overflow`` make the run open-loop, ``channel``
    configures the batched channels (see :class:`DesEngine`).  Historically every caller assumed saturated
    sources, so low throughput always meant contention; for an
    underloaded open-loop run the result instead carries
    ``offered_tuples_per_s`` / ``offered_utilization`` so callers can
    tell "the PE kept up with a light schedule" apart from "the PE is
    struggling" — check :attr:`DesResult.underloaded` before reasoning
    about contention.

    Warns (``RuntimeWarning``) when the run wedged — every process
    blocked with no pending event — because the throughput measured
    over such a window is an artifact, not a measurement.
    """
    engine = DesEngine(
        graph,
        machine,
        placement,
        scheduler_threads,
        queue_capacity=queue_capacity,
        obs=obs,
        arrivals=arrivals,
        overflow=overflow,
        channel=channel,
    )
    result = engine.run(warmup_s=warmup_s, measure_s=measure_s)
    if result.deadlocked:
        stuck = ", ".join(engine.sim.deadlock_tasks)
        warnings.warn(
            f"DES run of {graph.name!r} wedged: all tasks blocked "
            f"({stuck}); the measured throughput is not meaningful",
            RuntimeWarning,
            stacklevel=2,
        )
    return result
