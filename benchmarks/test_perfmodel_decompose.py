"""Region-decomposition microbenchmark: per-head walks vs the old sweep.

Replays the placements one 512-operator ``xeon-wide-pipeline``
perfmodel adaptation run decomposes (recorded in
``tests/runtime/decompose_golden.json``) through :func:`decompose` and
through :func:`reference_decompose`, a copy of the one-pass all-heads
sweep it replaced, in the same process.  Each timed decomposition also
asks ``threads_reaching`` of every locked operator, as the estimator
does; the reference answers with the rescan it used to do.  Every
replayed decomposition must equal the reference (regions and
``threads_reaching`` of every operator), and the per-head walk must
stay at least ``SPEEDUP_FLOOR`` times faster.

Emits ``benchmarks/results/BENCH_perfmodel.json``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from collections import Counter

from _bench_util import record, record_json, run_once

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
# about 2.2x on this replay.
SPEEDUP_FLOOR = 1.5


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


def _graph():
    doc = scenario_to_dict(
        load_scenario(find_scenario("xeon-wide-pipeline", ROOT / "scenarios"))
    )
    doc["topology"]["operators"] = 512
    doc["machine"]["cores"] = 64
    return compile_scenario(scenario_from_dict(doc)).graph


def _placements():
    texts = json.loads(GOLDEN.read_text())["run"]["placements"]
    return [QueuePlacement.of(int(i) for i in t.split()) for t in texts]


def _time(fn, graph, placements, locked):
    start = time.perf_counter()
    for placement in placements:
        fn(graph, placement, locked)
    return time.perf_counter() - start


def _walk(graph, placement, locked):
    decomp = decompose(graph, placement)
    for op in locked:
        decomp.threads_reaching(op)


def _sweep(graph, placement, locked):
    regions = reference_decompose(graph, placement)
    for op in locked:
        reference_threads_reaching(regions, op)


def _ab(graph, placements):
    locked = [op.index for op in graph if op.uses_lock]
    walk, sweep = [], []
    for r in range(ROUNDS):
        pair = ((_walk, walk), (_sweep, sweep))
        for fn, out in pair if r % 2 == 0 else pair[::-1]:
            out.append(_time(fn, graph, placements, locked))
    return statistics.median(walk), statistics.median(sweep)


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

    walk_s, sweep_s = run_once(benchmark, lambda: _ab(graph, placements))
    speedup = sweep_s / walk_s
    n = len(placements)
    record_json(
        "BENCH_perfmodel",
        {
            "scenario": (
                f"xeon-wide-pipeline (512 ops, 64 cores) | {n} recorded "
                f"placements | median of {ROUNDS} alternating rounds"
            ),
            "decompositions": n,
            "walk_s": round(walk_s, 4),
            "sweep_s": round(sweep_s, 4),
            "walk_us_per_decomposition": round(1e6 * walk_s / n, 1),
            "sweep_us_per_decomposition": round(1e6 * sweep_s / n, 1),
            "speedup": round(speedup, 2),
            "speedup_floor": SPEEDUP_FLOOR,
        },
    )
    record(
        "perfmodel_decompose",
        "\n".join(
            [
                "Region decomposition -- per-head walks vs all-heads sweep",
                f"  placements      {n}",
                f"  walk            {1e6 * walk_s / n:8.1f} us/decomposition",
                f"  sweep           {1e6 * sweep_s / n:8.1f} us/decomposition",
                f"  speedup         {speedup:8.2f}x "
                f"(floor {SPEEDUP_FLOOR}x)",
            ]
        ),
    )
    assert speedup >= SPEEDUP_FLOOR, (speedup, SPEEDUP_FLOOR)
