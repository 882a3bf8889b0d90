"""Steady-state throughput estimator for a configured PE.

This is the analytical heart of the simulated substrate.  Given a stream
graph, a queue placement and a scheduler-thread count, it computes the
sustainable source emission rate ``lambda`` (aggregated tuples/s over all
sources) as the minimum of four bounds:

1. **Serial bottleneck** — every region is executed by at most one
   thread at a time, so ``lambda <= thread_speed / max_r w_r`` where
   ``w_r`` is region *r*'s work (seconds) per unit source rate.
2. **Source-thread class capacity** — source regions are driven by the
   fixed operator threads: ``lambda * W_src <= n_sources * thread_speed``.
3. **Scheduler-thread class capacity** — dynamic regions share the
   elastic scheduler threads: ``lambda * W_dyn <= n_sched_used *
   thread_speed``.
4. **Memory bandwidth** — every queue crossing copies the tuple payload,
   and copies from all cores share the DRAM bus:
   ``lambda * bytes_copied_per_source_tuple <= machine bandwidth``.

``thread_speed`` degrades under SMT sharing and oversubscription via
:meth:`MachineProfile.effective_capacity`.  Region work includes the
operator execution cost, per-invocation call/submit overheads,
work-finding and queue synchronization (pop side), payload copy and
queue synchronization (push side) and operator-internal lock contention.

The estimator is intentionally *deterministic*; measurement noise is
layered on top by :mod:`repro.perfmodel.noise` so the elastic
controllers see realistic observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..graph.model import StreamGraph
from ..runtime.queues import QueuePlacement
from ..runtime.regions import RegionDecomposition, decompose
from .contention import operator_lock_cost, pop_cost, push_cost
from .machine import MachineProfile

# Class-total bins: source regions, dynamic regions, bytes copied.
_TOTALS = np.arange(3)


@dataclass(frozen=True)
class ThroughputEstimate:
    """Result of a steady-state throughput evaluation.

    ``throughput`` is the aggregate source emission rate in tuples/s.
    The individual bounds are exposed for diagnostics and for tests that
    assert *why* a configuration is slow.  Each region's work per unit
    source rate is kept as two flat tuples, ``region_heads`` and
    ``region_works`` (in the decomposition's row order), and paired up
    by :attr:`region_work` when read: flat tuples of numbers leave no
    garbage for the collector to trace, however many regions there are.
    """

    throughput: float
    serial_bound: float
    source_class_bound: float
    scheduler_class_bound: float
    memory_bound: float
    source_rate_bound: float
    bottleneck_entry: Optional[int]
    thread_speed: float
    active_threads: int
    scheduler_threads_used: int
    region_heads: Tuple[int, ...]
    region_works: Tuple[float, ...]

    @property
    def region_work(self) -> Tuple[Tuple[int, float], ...]:
        """``(head operator, work)`` per region, in row order."""
        return tuple(zip(self.region_heads, self.region_works))

    @property
    def limiting_factor(self) -> str:
        """Name of the binding constraint (for reports and tests)."""
        bounds = {
            "serial": self.serial_bound,
            "source_class": self.source_class_bound,
            "scheduler_class": self.scheduler_class_bound,
            "memory": self.memory_bound,
            "source_rate": self.source_rate_bound,
        }
        return min(bounds, key=lambda k: bounds[k])


class PerformanceModel:
    """Evaluates throughput for (placement, thread count) configurations.

    A model instance is bound to one graph and one machine profile, so
    what depends only on those two — each operator's fixed per-tuple
    cost, the sources' rate cap — is computed once per graph.  Estimates
    are cached per (placement, thread count); the region decomposition
    of the most recent placement is kept, since the adaptation loop
    evaluates one placement over many consecutive periods and thread
    counts, and revisited placements hit the estimate cache instead.

    An estimate prices the cells of the decomposition's region table
    (:class:`~repro.runtime.regions.RegionDecomposition`) with one
    gather, one product and one ``np.bincount``, which adds each cell's
    term into its row in cell order, and so gives the same floats as a
    loop over every region member would.
    """

    def __init__(self, graph: StreamGraph, machine: MachineProfile) -> None:
        self.machine = machine
        self.invalidate(graph)

    # ------------------------------------------------------------------
    def decomposition(self, placement: QueuePlacement) -> RegionDecomposition:
        last = self._last_decomposition
        if last is None or last.placement.queued != placement.queued:
            last = self._last_decomposition = decompose(self.graph, placement)
        return last

    # ------------------------------------------------------------------
    def estimate(
        self, placement: QueuePlacement, scheduler_threads: int
    ) -> ThroughputEstimate:
        """Steady-state throughput for one configuration."""
        if scheduler_threads < 0:
            raise ValueError(
                f"scheduler_threads must be >= 0, got {scheduler_threads}"
            )
        cache_key = (placement.queued, scheduler_threads)
        cached = self._estimate_cache.get(cache_key)
        if cached is not None:
            return cached

        machine = self.machine
        decomp = self.decomposition(placement)
        n_sources = decomp.n_sources
        n_dynamic = decomp.n_regions - n_sources
        n_queues = placement.n_queues

        sched_used = min(scheduler_threads, n_dynamic)
        active = n_sources + sched_used
        capacity = machine.effective_capacity(active)
        thread_speed = capacity / active if active > 0 else 0.0

        payload = self.graph.tuple_spec.payload_bytes
        # Threads that touch queues: producers (any region that pushes)
        # plus scheduler threads.  Using `active` is a faithful upper
        # bound for the contention estimate.
        t_pop = pop_cost(machine, active, n_queues) if n_queues else 0.0
        t_push = push_cost(machine, active, n_queues, payload)

        # The cost of each cell key of the region table: every
        # operator's per-tuple cost, a locked one's plus its lock,
        # contended by the threads that can reach it at once; then 0.0
        # for a source region's pop, the pop cost and the push cost into
        # each queue.
        n = len(self.graph)
        cost = self._base_cost.copy()
        cost[n + 1] = t_pop
        cost[n + 2 :] = t_push
        for op_idx in self._locked:
            contenders = min(decomp.threads_reaching(op_idx), active)
            cost[op_idx] += operator_lock_cost(machine, contenders)

        # Each region's work is its cells' terms summed from 0.0.
        # bincount adds term i into its row for i = 0, 1, ..., so a row
        # gives the same floats as `work += term` over its members, its
        # pop and its pushes in turn.  The same goes for the class
        # totals (region order) and the bytes copied into queues (push
        # cell order, which is region order).
        terms = cost[decomp.cell_keys]
        terms *= decomp.cell_rates
        work = np.bincount(decomp.cell_rows, terms)
        push_bytes = decomp.push_rates * payload
        w_src_total, w_dyn_total, copied_bytes_per_tuple = np.bincount(
            np.repeat(_TOTALS, (n_sources, n_dynamic, len(push_bytes))),
            np.concatenate((work, push_bytes)),
            minlength=3,
        ).tolist()
        works = tuple(work.tolist())
        # The first region of the largest work (terms are >= 0), if
        # positive.
        top = int(work.argmax())
        serial_max = works[top]
        bottleneck_entry = decomp.heads[top] if serial_max > 0.0 else None

        # Region rates are normalized to UNIT rate per source; the
        # aggregate emission rate `lambda` splits evenly over the
        # n_sources symmetric sources, so every per-source bound scales
        # by n_sources when expressed against the aggregate.
        inf = float("inf")
        scale = max(1, n_sources)
        serial_bound = (
            scale * thread_speed / serial_max if serial_max > 0 else inf
        )
        # Each source thread is bound to its own region; the class
        # bound distributes the total source-region work over the
        # n_sources operator threads (redundant for symmetric sources,
        # binding when one source region is much fatter).
        source_class_bound = (
            scale * n_sources * thread_speed / w_src_total
            if w_src_total > 0
            else inf
        )
        if w_dyn_total > 0:
            if sched_used == 0:
                scheduler_class_bound = 0.0
            else:
                scheduler_class_bound = (
                    scale * sched_used * thread_speed / w_dyn_total
                )
        else:
            scheduler_class_bound = inf
        memory_bound = (
            scale
            * machine.memory_bw_total_bytes_per_second
            / copied_bytes_per_tuple
            if copied_bytes_per_tuple > 0
            else inf
        )
        # External arrival limit: sources cannot emit faster than the
        # outside world delivers (the NIC line rate for the paper's
        # DPDK ingest).  Aggregate = n_sources x the slowest cap.
        source_rate_bound = scale * self._source_rate_cap

        throughput = min(
            serial_bound,
            source_class_bound,
            scheduler_class_bound,
            memory_bound,
            source_rate_bound,
        )
        estimate = ThroughputEstimate(
            throughput=throughput,
            serial_bound=serial_bound,
            source_class_bound=source_class_bound,
            scheduler_class_bound=scheduler_class_bound,
            memory_bound=memory_bound,
            source_rate_bound=source_rate_bound,
            bottleneck_entry=bottleneck_entry,
            thread_speed=thread_speed,
            active_threads=active,
            scheduler_threads_used=sched_used,
            region_heads=decomp.heads,
            region_works=works,
        )
        if len(self._estimate_cache) > 4096:
            self._estimate_cache.clear()
        self._estimate_cache[cache_key] = estimate
        return estimate

    # ------------------------------------------------------------------
    def sink_throughput(
        self, placement: QueuePlacement, scheduler_threads: int
    ) -> float:
        """Throughput measured at the sink operators (tuples/s).

        The paper measures at the sink; sink arrival rate relates to the
        source rate through the graph's selectivities.
        """
        estimate = self.estimate(placement, scheduler_threads)
        # Rates are normalized per-source; `throughput` aggregates all
        # sources, each contributing rate 1.
        n_sources = max(1, len(self.graph.sources))
        return estimate.throughput * self.graph.sink_rate() / n_sources

    def invalidate(self, graph: StreamGraph) -> None:
        """Bind a (new) graph — a workload change — and drop caches."""
        self.graph = graph
        self._last_decomposition: Optional[RegionDecomposition] = None
        self._estimate_cache: Dict[Tuple[frozenset, int], ThroughputEstimate] = {}
        machine = self.machine
        # Fixed per-tuple cost of each operator: execution plus
        # call/submit overheads (lock contention is added per estimate),
        # then 0.0 for a source region's pop, and slots the estimate
        # fills with the pop cost and the push costs.
        self._base_cost = np.array(
            [
                machine.flop_time(op.cost_flops)
                + machine.call_overhead_s
                + machine.submit_overhead_s * op.selectivity
                for op in graph
            ]
            + [0.0] * (len(graph) + 3)
        )
        self._locked = tuple(op.index for op in graph if op.uses_lock)
        self._source_rate_cap = min(
            (op.max_rate for op in graph.sources if op.max_rate is not None),
            default=float("inf"),
        )
