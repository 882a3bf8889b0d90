"""Property tests for the graph's derived quantities and ``decompose``.

Graphs come from the four ``graph/topologies.py`` builders with seeded
random sizes, selectivities, fan-out policies and locks; placements are
seeded random subsets.  ``decompose`` is checked against a brute-force
computation that uses only the raw operator and edge lists, and the
performance model is checked to be unaffected by callers mutating what
the graph's accessors hand out.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import suppress

import pytest

from repro.graph import StreamGraph, bushy, data_parallel, mixed, pipeline
from repro.graph.model import FanoutPolicy
from repro.perfmodel import PerformanceModel, laptop, xeon_176
from repro.runtime import QueuePlacement
from repro.runtime.regions import decompose

SEEDS = range(24)


def random_graph(rng: random.Random) -> StreamGraph:
    shape = rng.choice(("pipeline", "data_parallel", "mixed", "bushy"))
    if shape == "pipeline":
        base = pipeline(rng.randint(1, 40))
    elif shape == "data_parallel":
        base = data_parallel(rng.randint(1, 12))
    elif shape == "mixed":
        base = mixed(rng.randint(1, 5), rng.randint(1, 8))
    else:
        base = bushy(rng.randint(1, 4))
    ops = [
        dataclasses.replace(
            op,
            cost_flops=rng.choice((1.0, 100.0, 1e4)),
            selectivity=rng.choice((0.25, 0.5, 1.0, 1.0, 2.0, 3.0)),
            fanout=rng.choice(tuple(FanoutPolicy)),
            uses_lock=op.uses_lock or rng.random() < 0.1,
        )
        for op in base
    ]
    return StreamGraph(
        ops, base.edges, tuple_spec=base.tuple_spec, name=base.name
    )


def random_placement(graph: StreamGraph, rng: random.Random):
    density = rng.choice((0.0, 0.2, 0.5, 1.0))
    return QueuePlacement.of(
        op.index
        for op in graph
        if not op.is_source and rng.random() < density
    )


# ----------------------------------------------------------------------
# brute force, from the raw operator and edge lists only
# ----------------------------------------------------------------------
def _succ(graph):
    succ = {op.index: [] for op in graph.operators}
    for e in graph.edges:
        succ[e.src].append(e.dst)
    return succ


def _topo(graph, succ):
    """Depth-first reverse postorder (a different order than Kahn's)."""
    seen, post = set(), []

    def visit(n):
        seen.add(n)
        for s in succ[n]:
            if s not in seen:
                visit(s)
        post.append(n)

    for op in graph.operators:
        if op.index not in seen:
            visit(op.index)
    return post[::-1]


def _multiplier(op, n_succ):
    if n_succ == 0:
        return 0.0
    if op.fanout is FanoutPolicy.SPLIT:
        return op.selectivity / n_succ
    return op.selectivity


def _propagate(graph, succ, order, seeds, stop):
    """Rates from ``seeds`` along edges, not propagating past ``stop``."""
    rates = {op.index: 0.0 for op in graph.operators}
    rates.update(seeds)
    for n in order:
        if n in stop:
            continue
        mult = _multiplier(graph.operators[n], len(succ[n]))
        for s in succ[n]:
            rates[s] += rates[n] * mult
    return rates


def brute_force(graph, placement):
    """(heads, members, op rates, push rates) per region."""
    succ = _succ(graph)
    order = _topo(graph, succ)
    queued = set(placement.queued)
    sources = [op.index for op in graph.operators if op.is_source]
    global_rates = _propagate(
        graph, succ, order, {s: 1.0 for s in sources}, set()
    )
    out = []
    for head in sources + sorted(queued):
        members, stack = {head}, [head]
        while stack:
            for s in succ[stack.pop()]:
                if s not in queued and s not in members:
                    members.add(s)
                    stack.append(s)
        entry = 1.0 if head in sources else global_rates[head]
        rates = _propagate(
            graph, succ, order, {head: entry}, (queued | set(sources)) - {head}
        )
        pushes = {}
        for m in members:
            mult = _multiplier(graph.operators[m], len(succ[m]))
            for s in succ[m]:
                if s in queued:
                    pushes[s] = pushes.get(s, 0.0) + rates[m] * mult
        out.append(
            (head, members, {m: rates[m] for m in members}, pushes)
        )
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_decompose_matches_brute_force(seed):
    rng = random.Random(seed)
    graph = random_graph(rng)
    for _ in range(4):
        placement = random_placement(graph, rng)
        decomp = decompose(graph, placement)
        expected = brute_force(graph, placement)
        assert [r.entry for r in decomp.regions] == [h for h, *_ in expected]
        reach = {op.index: 0 for op in graph}
        for region, (head, members, rates, pushes) in zip(
            decomp.regions, expected
        ):
            assert region.is_source_region == graph.operator(head).is_source
            assert set(region.operators) == members
            got = dict(region.op_rates)
            for m in members:
                assert got[m] == pytest.approx(rates[m], rel=1e-12)
                reach[m] += rates[m] > 0.0
            got_push = dict(region.push_rates)
            assert set(got_push) == set(pushes)
            for q, rate in pushes.items():
                assert got_push[q] == pytest.approx(rate, rel=1e-12)
        for idx, count in reach.items():
            assert decomp.threads_reaching(idx) == count


def _estimates(model, placements):
    return [
        (model.estimate(p, t), model.sink_throughput(p, t))
        for p in placements
        for t in (0, 1, 3, 16)
    ]


def _mutate(obj):
    """Try every way a caller could scribble on a returned value."""
    with suppress(TypeError, AttributeError):
        obj[0] = 1e9
    with suppress(TypeError, AttributeError):
        obj.clear()
    with suppress(TypeError, AttributeError):
        obj.append(0)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutating_accessor_results_leaves_estimates_unchanged(seed):
    rng = random.Random(seed)
    graph = random_graph(rng)
    machine = laptop(8)
    placements = [random_placement(graph, rng) for _ in range(3)]
    before = _estimates(PerformanceModel(graph, machine), placements)
    rates_before = dict(graph.arrival_rates())

    _mutate(graph.arrival_rates())
    _mutate(graph.sources)
    _mutate(graph.sinks)
    _mutate(graph.topological_order())
    for op in graph:
        _mutate(graph.successors(op.index))
        _mutate(graph.predecessors(op.index))

    assert dict(graph.arrival_rates()) == rates_before
    assert _estimates(PerformanceModel(graph, machine), placements) == before


@pytest.mark.parametrize("seed", SEEDS)
def test_invalidate_matches_fresh_model(seed):
    rng = random.Random(seed)
    graph = random_graph(rng)
    machine = xeon_176()
    placements = [random_placement(graph, rng) for _ in range(3)]
    model = PerformanceModel(graph, machine)
    _estimates(model, placements)  # warm every cache
    heavier = graph.replace_costs(
        {op.index: op.cost_flops * rng.choice((0.5, 3.0)) for op in graph}
    )
    model.invalidate(heavier)
    fresh = PerformanceModel(heavier, machine)
    assert _estimates(model, placements) == _estimates(fresh, placements)


def test_decomposition_memo_follows_the_placement():
    """Alternating placements must not reuse the other's regions."""
    rng = random.Random(7)
    graph = mixed(3, 6)
    a, b = (random_placement(graph, rng) for _ in range(2))
    model = PerformanceModel(graph, laptop(8))
    for placement in (a, b, a, b):
        got = model.decomposition(placement)
        assert got.placement.queued == placement.queued
        assert got == decompose(graph, placement)
