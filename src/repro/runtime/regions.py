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
- ``rates`` — tuples processed at each member operator (``operators``),
- ``push_rates`` — tuples pushed into each downstream scheduler queue.

Fan-in without a queue means an operator can belong to several regions;
each region accounts only for the tuples *it* delivers to that operator,
so the global rates are conserved (tested property).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate
from operator import mul
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Tuple

from ..graph.model import StreamGraph
from .queues import QueuePlacement


class Region(NamedTuple):
    """One serial execution unit of the PE (a tuple: cheap to build)."""

    entry: int
    is_source_region: bool
    entry_rate: float
    # Members in topological order, and the rate each processes.
    operators: Tuple[int, ...]
    rates: Tuple[float, ...]
    push_rates: Tuple[Tuple[int, float], ...]

    @property
    def op_rates(self) -> Tuple[Tuple[int, float], ...]:
        return tuple(zip(self.operators, self.rates))

    def op_rate(self, idx: int) -> float:
        if idx in self.operators:
            return self.rates[self.operators.index(idx)]
        return 0.0


# Region((entry, ...)) without NamedTuple.__new__'s Python frame.
_region = partial(tuple.__new__, Region)


@dataclass(frozen=True)
class RegionDecomposition:
    """All regions of a PE under a particular queue placement."""

    regions: Tuple[Region, ...]
    placement: QueuePlacement
    # threads_reaching where it is not 1, filled by decompose: the
    # operators _walk_on visits, which several regions may share, and
    # chain members at rate 0.
    reach: Mapping[int, int] = field(compare=False, repr=False)

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
        return self.reach.get(op_idx, 1)


def decompose(
    graph: StreamGraph, placement: QueuePlacement
) -> RegionDecomposition:
    """Partition ``graph`` into regions under ``placement``.

    Each region is walked from its own head, so its members, order and
    rates depend on nothing but that head.  The walk first follows the
    head's linear chain (:attr:`StreamGraph.linear_chains`) up to the
    next queued operator or the chain's end, taking the rates as
    left-to-right products of the chain's edge multipliers.  A chain
    ending at a branch or merge hands over to :func:`_walk_on`.

    Past its first operator a chain is entered only through the operator
    before, so a head's chain segment belongs to its region alone; only
    the operators :func:`_walk_on` visits can be shared between
    regions.
    """
    placement.validate(graph)
    global_rates = graph.arrival_rates()
    queued = placement.queued
    chain_of, position, chain_ops, chain_mults = graph.linear_chains

    # stops[c]: positions of chain c's queued operators, ascending, then
    # the chain's length.
    stops: Dict[int, List[int]] = {}
    for op in queued:
        c = chain_of[op]
        stops.setdefault(c, [len(chain_ops[c])]).append(position[op])
    for positions in stops.values():
        positions.sort()

    # Source heads come first, so a head's position says its kind.
    n_sources = len(graph.sources)
    heads = [op.index for op in graph.sources] + sorted(queued)
    regions = []
    reach: Dict[int, int] = {}
    for pos, head in enumerate(heads):
        # A queued head handles every tuple arriving at its queue; a
        # source region handles its own emissions.
        is_source = pos < n_sources
        entry_rate = 1.0 if is_source else global_rates[head]
        c, p = chain_of[head], position[head]
        ops, mults = chain_ops[c], chain_mults[c]
        ends = stops.get(c)
        end = ends[bisect_right(ends, p)] if ends else len(ops)
        members = ops[p:end]
        rates = tuple(accumulate(mults[p:end - 1], mul, initial=entry_rate))
        # Multipliers are >= 0, so a chain's rates are all positive
        # when its last one is.
        if not rates[-1] > 0.0:
            reach.update(
                (op, 0) for op, rate in zip(members, rates) if not rate > 0.0
            )
        if end < len(ops):
            pushes: Tuple[Tuple[int, float], ...] = (
                (ops[end], rates[-1] * mults[end - 1]),
            )
        else:
            more, more_rates, pushes = _walk_on(
                graph, queued, members[-1], rates[-1], reach
            )
            if more:
                members += tuple(more)
                rates += tuple(more_rates)
        regions.append(
            _region((head, is_source, entry_rate, members, rates, pushes))
        )
    return RegionDecomposition(tuple(regions), placement, reach)


def _walk_on(
    graph: StreamGraph,
    queued: FrozenSet[int],
    node: int,
    rate: float,
    reach: Dict[int, int],
) -> Tuple[List[int], List[float], Tuple[Tuple[int, float], ...]]:
    """The rest of a region whose chain walk ended at ``node``.

    Every later member descends from ``node``, so popping the pending
    operators by topological position visits them in graph order with
    their fan-in complete; each rate is summed from 0.0 in that order.
    Returns those members, their rates and the region's push rates.
    Each member gets an entry in ``reach``, raised by one when its rate
    is positive, so one reached only at rate 0 counts 0, not 1.
    """
    successors = graph.successor_table
    multipliers = graph.edge_rate_multipliers
    order = graph.topological_order()
    topo_pos = graph.topological_positions
    ops: List[int] = []
    rates: List[float] = []
    pending: Dict[int, float] = {}
    pushes: Dict[int, float] = {}
    heap: List[int] = []
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
