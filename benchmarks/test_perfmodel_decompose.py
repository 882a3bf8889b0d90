"""Analytical-model microbenchmarks on recorded placement probes.

Both replay, in one process and in alternating rounds, the placements
one 512-operator ``xeon-wide-pipeline`` perfmodel adaptation run
decomposes (recorded in ``tests/runtime/decompose_golden.json``):

- :func:`decompose` against :func:`reference_decompose`, a copy of the
  one-pass all-heads sweep that preceded per-head walks.  Each timed
  decomposition also asks ``threads_reaching`` of every locked
  operator, as the estimator does; the reference answers with the
  rescan it used to do.  Every replayed decomposition must equal the
  reference (regions and ``threads_reaching`` of every operator), and
  the table must stay at least ``SPEEDUP_FLOOR`` times faster.  It
  also reports the table's cells per region member.
- ``PerformanceModel.estimate`` of a fresh model, once per distinct
  placement so that every call misses the estimate cache, against
  :func:`reference_estimate`: the per-member Python loop that preceded
  the region tables, fed by :func:`reference_walks`, the per-head
  walks that preceded them.  The estimates must be equal, and the
  table path at least ``ESTIMATE_SPEEDUP_FLOOR`` times faster.  Both
  are timed with the cyclic collector on, whatever the runner's
  setting (``--benchmark-disable-gc``): every missed estimate is
  cached, so the collections its objects cause are part of its cost.

Emits ``benchmarks/results/BENCH_perfmodel.json``.
"""

from __future__ import annotations

import gc
import json
import pathlib
import statistics
import time
from bisect import bisect_right
from collections import Counter
from heapq import heappop, heappush
from itertools import accumulate
from operator import mul

from _bench_util import record, record_json, run_once

from repro.perfmodel import PerformanceModel
from repro.perfmodel.contention import (
    operator_lock_cost,
    pop_cost,
    push_cost,
)
from repro.perfmodel.throughput import ThroughputEstimate
from repro.runtime.queues import QueuePlacement
from repro.runtime.regions import decompose
from repro.scenarios import (
    compile_scenario,
    find_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "runtime" / "decompose_golden.json"
ROUNDS = 7

# Conservative (timing varies between machines); a 2-vCPU VM measures
# about 7.8x on this replay.
SPEEDUP_FLOOR = 3.0
# Decomposition plus estimate per placement; a 2-vCPU VM measures
# about 3.1x.
ESTIMATE_SPEEDUP_FLOOR = 2.0
# Scheduler threads of the timed estimates; equality is checked at all.
ESTIMATE_THREADS = 16
THREAD_COUNTS = (0, 1, 5, 16, 64)


def reference_decompose(graph, placement):
    """The replaced sweep; regions as ``(entry, is_source, entry_rate,
    op_rates, push_rates)``."""
    placement.validate(graph)
    global_rates = graph.arrival_rates()
    queued = placement.queued
    successors = graph.successor_table
    multipliers = graph.edge_rate_multipliers
    n_sources = len(graph.sources)
    heads = [op.index for op in graph.sources] + sorted(queued)
    reached = [{} for _ in range(len(graph))]
    members = {}
    pushes = {}
    for pos, head in enumerate(heads):
        reached[head][head] = 1.0 if pos < n_sources else global_rates[head]
        members[head] = []
        pushes[head] = {}
    for node in graph.topological_order():
        succs = successors[node]
        mult = multipliers[node]
        for head, rate in reached[node].items():
            members[head].append((node, rate))
            per_succ = rate * mult
            for succ in succs:
                if succ in queued:
                    out = pushes[head]
                    out[succ] = out.get(succ, 0.0) + per_succ
                else:
                    out = reached[succ]
                    out[head] = out.get(head, 0.0) + per_succ
    return tuple(
        (
            head,
            pos < n_sources,
            members[head][0][1],
            tuple(members[head]),
            tuple(sorted(pushes[head].items())),
        )
        for pos, head in enumerate(heads)
    )


def reference_threads_reaching(regions, op_idx):
    """The replaced per-call rescan of every region."""
    return sum(
        1
        for r in regions
        if next((rate for op, rate in r[3] if op == op_idx), 0.0) > 0.0
    )


def reference_walks(graph, placement):
    """The per-head walks the region tables replaced: regions as
    ``(entry, is_source, entry_rate, operators, rates, push_rates)``,
    and ``threads_reaching`` where it is not 1."""
    placement.validate(graph)
    global_rates = graph.arrival_rates()
    queued = placement.queued
    chain_of, position, chain_ops = graph.linear_chains[:3]
    mults = graph.edge_rate_multipliers
    chain_mults = [tuple(0.0 + mults[i] for i in ops) for ops in chain_ops]
    stops = {}
    for op in queued:
        c = chain_of[op]
        stops.setdefault(c, [len(chain_ops[c])]).append(position[op])
    for positions in stops.values():
        positions.sort()
    n_sources = len(graph.sources)
    heads = [op.index for op in graph.sources] + sorted(queued)
    regions = []
    reach = {}
    for pos, head in enumerate(heads):
        is_source = pos < n_sources
        entry_rate = 1.0 if is_source else global_rates[head]
        c, p = chain_of[head], position[head]
        ops, mults = chain_ops[c], chain_mults[c]
        ends = stops.get(c)
        end = ends[bisect_right(ends, p)] if ends else len(ops)
        members = ops[p:end]
        rates = tuple(accumulate(mults[p:end - 1], mul, initial=entry_rate))
        if not rates[-1] > 0.0:
            reach.update(
                (op, 0) for op, rate in zip(members, rates) if not rate > 0.0
            )
        if end < len(ops):
            pushes = ((ops[end], rates[-1] * mults[end - 1]),)
        else:
            more, more_rates, pushes = _reference_walk_on(
                graph, queued, members[-1], rates[-1], reach
            )
            members += tuple(more)
            rates += tuple(more_rates)
        regions.append((head, is_source, entry_rate, members, rates, pushes))
    return regions, reach


def _reference_walk_on(graph, queued, node, rate, reach):
    successors = graph.successor_table
    multipliers = graph.edge_rate_multipliers
    order = graph.topological_order()
    topo_pos = graph.topological_positions
    ops, rates, pending, pushes, heap = [], [], {}, {}, []
    while True:
        per_succ = rate * multipliers[node]
        for succ in successors[node]:
            if succ in queued:
                pushes[succ] = pushes.get(succ, 0.0) + per_succ
            elif succ in pending:
                pending[succ] += per_succ
            else:
                pending[succ] = 0.0 + per_succ
                heappush(heap, topo_pos[succ])
        if not heap:
            return ops, rates, tuple(sorted(pushes.items()))
        node = order[heappop(heap)]
        rate = pending[node]
        ops.append(node)
        rates.append(rate)
        reach[node] = reach.get(node, 0) + (rate > 0.0)


class ReferenceModel:
    """The per-member estimate loop the region tables replaced."""

    def __init__(self, graph, machine):
        self.graph = graph
        self.machine = machine
        self.base_cost = tuple(
            machine.flop_time(op.cost_flops)
            + machine.call_overhead_s
            + machine.submit_overhead_s * op.selectivity
            for op in graph
        )
        self.locked = frozenset(op.index for op in graph if op.uses_lock)
        self.source_rate_cap = min(
            (op.max_rate for op in graph.sources if op.max_rate is not None),
            default=float("inf"),
        )


def reference_estimate(model, placement, scheduler_threads):
    machine = model.machine
    regions, reach = reference_walks(model.graph, placement)
    n_sources = sum(1 for r in regions if r[1])
    n_dynamic = len(regions) - n_sources
    n_queues = placement.n_queues
    sched_used = min(scheduler_threads, n_dynamic)
    active = n_sources + sched_used
    capacity = machine.effective_capacity(active)
    thread_speed = capacity / active if active > 0 else 0.0
    payload = model.graph.tuple_spec.payload_bytes
    t_pop = pop_cost(machine, active, n_queues) if n_queues else 0.0
    t_push = push_cost(machine, active, n_queues, payload)
    entries = []
    works = []
    copied_bytes_per_tuple = 0.0
    w_src_total = 0.0
    w_dyn_total = 0.0
    serial_max = 0.0
    bottleneck_entry = None
    for entry, is_source, entry_rate, members, rates, pushes in regions:
        work = 0.0
        for op_idx, rate in zip(members, rates):
            per_tuple = model.base_cost[op_idx]
            if op_idx in model.locked:
                contenders = min(reach.get(op_idx, 1), active)
                per_tuple += operator_lock_cost(machine, contenders)
            work += rate * per_tuple
        if not is_source:
            work += entry_rate * t_pop
        for _queue_op, push_rate in pushes:
            work += push_rate * t_push
            copied_bytes_per_tuple += push_rate * payload
        entries.append(entry)
        works.append(work)
        if is_source:
            w_src_total += work
        else:
            w_dyn_total += work
        if work > serial_max:
            serial_max = work
            bottleneck_entry = entry
    inf = float("inf")
    scale = max(1, n_sources)
    serial_bound = scale * thread_speed / serial_max if serial_max > 0 else inf
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
        scale * machine.memory_bw_total_bytes_per_second / copied_bytes_per_tuple
        if copied_bytes_per_tuple > 0
        else inf
    )
    source_rate_bound = scale * model.source_rate_cap
    return ThroughputEstimate(
        throughput=min(
            serial_bound,
            source_class_bound,
            scheduler_class_bound,
            memory_bound,
            source_rate_bound,
        ),
        serial_bound=serial_bound,
        source_class_bound=source_class_bound,
        scheduler_class_bound=scheduler_class_bound,
        memory_bound=memory_bound,
        source_rate_bound=source_rate_bound,
        bottleneck_entry=bottleneck_entry,
        thread_speed=thread_speed,
        active_threads=active,
        scheduler_threads_used=sched_used,
        region_heads=tuple(entries),
        region_works=tuple(works),
    )


def _compiled():
    doc = scenario_to_dict(
        load_scenario(find_scenario("xeon-wide-pipeline", ROOT / "scenarios"))
    )
    doc["topology"]["operators"] = 512
    doc["machine"]["cores"] = 64
    return compile_scenario(scenario_from_dict(doc))


def _graph():
    return _compiled().graph


def _placements():
    texts = json.loads(GOLDEN.read_text())["run"]["placements"]
    return [QueuePlacement.of(int(i) for i in t.split()) for t in texts]


def _time(fn, graph, placements, locked):
    start = time.perf_counter()
    for placement in placements:
        fn(graph, placement, locked)
    return time.perf_counter() - start


def _table(graph, placement, locked):
    decomp = decompose(graph, placement)
    for op in locked:
        decomp.threads_reaching(op)


def _sweep(graph, placement, locked):
    regions = reference_decompose(graph, placement)
    for op in locked:
        reference_threads_reaching(regions, op)


def _ab(graph, placements):
    locked = [op.index for op in graph if op.uses_lock]
    table, sweep = [], []
    for r in range(ROUNDS):
        pair = ((_table, table), (_sweep, sweep))
        for fn, out in pair if r % 2 == 0 else pair[::-1]:
            out.append(_time(fn, graph, placements, locked))
    return statistics.median(table), statistics.median(sweep)


def test_decompose_matches_sweep_and_is_faster(benchmark):
    graph = _graph()
    placements = _placements()
    for placement in placements:
        got = decompose(graph, placement)
        regions = reference_decompose(graph, placement)
        # Every region's positive-rate members, counted at once: what
        # reference_threads_reaching returns, without n rescans.
        reach = Counter(
            op for r in regions for op, rate in r[3] if rate > 0.0
        )
        assert [
            (r.entry, r.is_source_region, r.entry_rate, r.op_rates,
             r.push_rates)
            for r in got.regions
        ] == list(regions)
        assert [got.threads_reaching(op.index) for op in graph] == [
            reach[op.index] for op in graph
        ]

    table_s, sweep_s = run_once(benchmark, lambda: _ab(graph, placements))
    speedup = sweep_s / table_s
    n = len(placements)
    cells = members = 0
    for placement in placements:
        decomp = decompose(graph, placement)
        cells += len(decomp.cell_rows)
        members += sum(len(r.operators) for r in decomp.regions)
    cells_per_member = cells / members
    record_json(
        "BENCH_perfmodel",
        {
            "scenario": (
                f"xeon-wide-pipeline (512 ops, 64 cores) | {n} recorded "
                f"placements | median of {ROUNDS} alternating rounds"
            ),
            "decompositions": n,
            "table_s": round(table_s, 4),
            "sweep_s": round(sweep_s, 4),
            "table_us_per_decomposition": round(1e6 * table_s / n, 1),
            "sweep_us_per_decomposition": round(1e6 * sweep_s / n, 1),
            "speedup": round(speedup, 2),
            "speedup_floor": SPEEDUP_FLOOR,
            "cells_per_member": round(cells_per_member, 2),
        },
        merge=True,
    )
    record(
        "perfmodel_decompose",
        "\n".join(
            [
                "Region decomposition -- region table vs all-heads sweep",
                f"  placements      {n}",
                f"  table           {1e6 * table_s / n:8.1f} us/decomposition",
                f"  sweep           {1e6 * sweep_s / n:8.1f} us/decomposition",
                f"  speedup         {speedup:8.2f}x "
                f"(floor {SPEEDUP_FLOOR}x)",
                f"  table cells     {cells_per_member:8.2f} per member",
            ]
        ),
    )
    assert speedup >= SPEEDUP_FLOOR, (speedup, SPEEDUP_FLOOR)


def _estimate_ab(graph, machine, placements):
    enabled = gc.isenabled()
    gc.enable()
    try:
        return _estimate_rounds(graph, machine, placements)
    finally:
        if not enabled:
            gc.disable()


def _estimate_rounds(graph, machine, placements):
    table, loop = [], []
    for r in range(ROUNDS):
        # A fresh model per round: every placement is a miss.
        model = PerformanceModel(graph, machine)
        reference = ReferenceModel(graph, machine)

        def run_table():
            for placement in placements:
                model.estimate(placement, ESTIMATE_THREADS)

        def run_loop():
            for placement in placements:
                reference_estimate(reference, placement, ESTIMATE_THREADS)

        pair = ((run_table, table), (run_loop, loop))
        for fn, out in pair if r % 2 == 0 else pair[::-1]:
            start = time.perf_counter()
            fn()
            out.append(time.perf_counter() - start)
    return statistics.median(table), statistics.median(loop)


def test_estimate_matches_member_loop_and_is_faster(benchmark):
    compiled = _compiled()
    graph, machine = compiled.graph, compiled.machine
    placements = list(
        {p.queued: p for p in _placements()}.values()
    )
    reference = ReferenceModel(graph, machine)
    for placement in placements:
        model = PerformanceModel(graph, machine)
        for threads in THREAD_COUNTS:
            assert model.estimate(placement, threads) == reference_estimate(
                reference, placement, threads
            ), (sorted(placement.queued), threads)

    table_s, loop_s = run_once(
        benchmark, lambda: _estimate_ab(graph, machine, placements)
    )
    speedup = loop_s / table_s
    n = len(placements)
    record_json(
        "BENCH_perfmodel",
        {
            "estimate": {
                "scenario": (
                    f"xeon-wide-pipeline (512 ops, 64 cores) | {n} distinct "
                    f"recorded placements, {ESTIMATE_THREADS} scheduler "
                    f"threads | median of {ROUNDS} alternating rounds, "
                    f"collector on"
                ),
                "estimates": n,
                "table_us_per_estimate": round(1e6 * table_s / n, 1),
                "loop_us_per_estimate": round(1e6 * loop_s / n, 1),
                "speedup": round(speedup, 2),
                "speedup_floor": ESTIMATE_SPEEDUP_FLOOR,
            }
        },
        merge=True,
    )
    record(
        "perfmodel_estimate",
        "\n".join(
            [
                "Decomposition + estimate -- region table vs member loop",
                f"  placements      {n} (every estimate a miss)",
                f"  table           {1e6 * table_s / n:8.1f} us/estimate",
                f"  member loop     {1e6 * loop_s / n:8.1f} us/estimate",
                f"  speedup         {speedup:8.2f}x "
                f"(floor {ESTIMATE_SPEEDUP_FLOOR}x)",
            ]
        ),
    )
    assert speedup >= ESTIMATE_SPEEDUP_FLOOR, (
        speedup,
        ESTIMATE_SPEEDUP_FLOOR,
    )
