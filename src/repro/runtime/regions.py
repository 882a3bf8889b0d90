"""Fusion of the stream graph into execution regions.

Given a queue placement, the PE's operators partition into *regions*:

- every **source** operator starts a region, executed by its dedicated
  operator thread;
- every **queued** operator starts a region, executed by whichever
  scheduler thread pops a tuple from its queue;
- a non-queued operator is executed inline (function call) by the thread
  driving its upstream operator, so it belongs to the region(s) of its
  in-region predecessors.

A region is *serial*: at most one thread executes it at a time (the
operator thread for source regions; scheduler queues serialize access to
queued operators, matching the port-protection in the SPL runtime).  The
region decomposition therefore determines both the pipeline-parallelism
available (one unit per region) and the per-unit bottleneck work.

Rates are propagated from the graph so every region knows, per unit of
source emission rate:

- ``entry_rate`` — tuples entering the region head,
- ``op_rates`` — tuples processed at each member operator,
- ``push_rates`` — tuples pushed into each downstream scheduler queue.

Fan-in without a queue means an operator can belong to several regions;
each region accounts only for the tuples *it* delivers to that operator,
so the global rates are conserved (tested property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

from ..graph.model import StreamGraph
from .queues import QueuePlacement


class Region(NamedTuple):
    """One serial execution unit of the PE (a tuple: cheap to build)."""

    entry: int
    is_source_region: bool
    entry_rate: float
    op_rates: Tuple[Tuple[int, float], ...]
    push_rates: Tuple[Tuple[int, float], ...]

    @property
    def operators(self) -> Tuple[int, ...]:
        return tuple(idx for idx, _ in self.op_rates)

    def op_rate(self, idx: int) -> float:
        for op_idx, rate in self.op_rates:
            if op_idx == idx:
                return rate
        return 0.0


@dataclass(frozen=True)
class RegionDecomposition:
    """All regions of a PE under a particular queue placement."""

    regions: Tuple[Region, ...]
    placement: QueuePlacement

    @property
    def source_regions(self) -> Tuple[Region, ...]:
        return tuple(r for r in self.regions if r.is_source_region)

    @property
    def dynamic_regions(self) -> Tuple[Region, ...]:
        return tuple(r for r in self.regions if not r.is_source_region)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def region_of_entry(self, entry: int) -> Region:
        for region in self.regions:
            if region.entry == entry:
                return region
        raise KeyError(f"no region with entry operator {entry}")

    def operators_per_region(self) -> Dict[int, List[int]]:
        """Map region entry -> member operator indices."""
        return {r.entry: list(r.operators) for r in self.regions}

    def threads_reaching(self, op_idx: int) -> int:
        """Number of distinct regions whose execution touches ``op_idx``.

        Used by the contention model: an operator reachable from *k*
        regions can be executed by up to *k* threads concurrently, so a
        lock inside it contends among up to *k* threads.
        """
        return sum(1 for r in self.regions if r.op_rate(op_idx) > 0.0)


def decompose(
    graph: StreamGraph, placement: QueuePlacement
) -> RegionDecomposition:
    """Partition ``graph`` into regions under ``placement``.

    One pass over the operators in topological order: each operator
    holds, per region reaching it without crossing a queue, the rate
    that region delivers to it, and forwards that rate to its
    successors — in-region when the successor is not queued, as a push
    when it is.  Topological order lets fan-in inside a region
    accumulate fully before the operator's own outputs are propagated.
    Each edge is handled once per region executing its ``src``, so the
    cost is linear in the graph plus region overlap at unqueued fan-in.
    """
    placement.validate(graph)
    global_rates = graph.arrival_rates()
    queued = placement.queued
    successors = graph.successor_table
    multipliers = graph.edge_rate_multipliers

    # Source heads come first, so a head's position says its kind.
    n_sources = len(graph.sources)
    heads = [op.index for op in graph.sources] + sorted(queued)

    # reached[op]: region head -> tuples/sec that region processes at
    # op, per unit source rate.  A queued head handles every tuple
    # arriving at its queue; a source region handles its own emissions.
    reached: List[Dict[int, float]] = [{} for _ in range(len(graph))]
    members: Dict[int, List[Tuple[int, float]]] = {}
    pushes: Dict[int, Dict[int, float]] = {}
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

    return RegionDecomposition(
        regions=tuple(
            Region(
                head,  # entry
                pos < n_sources,  # is_source_region
                members[head][0][1],  # entry_rate: the head comes first
                tuple(members[head]),  # op_rates
                tuple(sorted(pushes[head].items())),  # push_rates
            )
            for pos, head in enumerate(heads)
        ),
        placement=placement,
    )
