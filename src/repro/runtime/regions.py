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

A decomposition is a table of the terms of every region's work, with
no padding, so the performance model prices a placement with a few
array operations; :attr:`RegionDecomposition.regions` builds
:class:`Region` views of its rows on first use.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Tuple

import numpy as np

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


class RegionDecomposition:
    """All regions of a PE under a particular queue placement.

    One row per region, in head order: the ``n_sources`` source regions
    first (graph order), then one per queued operator, ascending;
    ``heads`` holds their head operators.  The table is a list of
    *cells*, one per term of a region's work per unit source rate, in
    three flat read-only arrays, with no padding:

    =============  ================================  ======================
    cells          ``cell_keys``                     ``cell_rates``
    =============  ================================  ======================
    members        the member operator               rate it processes
    one pop a row  ``n + 1``; ``n`` in a source      entry rate
                   region (which pops nothing)
    pushes         ``n + 2 + q`` (push into queued   rate pushed into that
                   operator ``q``)                   queue
    =============  ================================  ======================

    with ``n = len(graph)``; ``cell_rows`` gives each cell's row.  The
    members come first: every row's chain segment, row by row, then
    what :func:`_walk_on` adds, row by row.  Then the pops, in row
    order, and last the ``n_pushes`` pushes, by row and then ascending
    queued operator.  So the cells of any one row run in the order the
    performance model adds its terms: members in topological order, the
    pop, the pushes.

    Equality compares :attr:`regions` and the placement, as for the
    tuples of :class:`Region` the rows stand for.
    """

    def __init__(
        self,
        placement: QueuePlacement,
        n_sources: int,
        heads: Tuple[int, ...],
        cell_rows: np.ndarray,
        cell_keys: np.ndarray,
        cell_rates: np.ndarray,
        n_pushes: int,
        reach: Mapping[int, int],
    ) -> None:
        for array in (cell_rows, cell_keys, cell_rates):
            array.flags.writeable = False
        self.placement = placement
        self.n_sources = n_sources
        self.heads = heads
        self.cell_rows = cell_rows
        self.cell_keys = cell_keys
        self.cell_rates = cell_rates
        self.n_pushes = n_pushes
        # threads_reaching where it is not 1: the operators _walk_on
        # visits, which several regions may share, and chain members at
        # rate 0.
        self.reach = reach

    @property
    def push_rates(self) -> np.ndarray:
        """The rates of the push cells, in table order."""
        return self.cell_rates[len(self.cell_rates) - self.n_pushes :]

    @cached_property
    def regions(self) -> Tuple[Region, ...]:
        n_rows = len(self.heads)
        first_pop = len(self.cell_rows) - self.n_pushes - n_rows
        first_push = first_pop + n_rows
        rows = self.cell_rows.tolist()
        keys = self.cell_keys.tolist()
        rates = self.cell_rates.tolist()
        # Row 0 is a source region: its pop key is n.
        push_key = keys[first_pop] + 2
        ops: List[List[int]] = [[] for _ in range(n_rows)]
        op_rates: List[List[float]] = [[] for _ in range(n_rows)]
        pushes: List[List[Tuple[int, float]]] = [[] for _ in range(n_rows)]
        for row, key, rate in zip(rows[:first_pop], keys, rates):
            ops[row].append(key)
            op_rates[row].append(rate)
        for cell in range(first_push, len(rows)):
            pushes[rows[cell]].append((keys[cell] - push_key, rates[cell]))
        return tuple(
            _region(
                (
                    head,
                    row < self.n_sources,
                    rates[first_pop + row],
                    tuple(ops[row]),
                    tuple(op_rates[row]),
                    tuple(pushes[row]),
                )
            )
            for row, head in enumerate(self.heads)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.regions, self.placement) == (
            other.regions,
            other.placement,
        )

    def __hash__(self) -> int:
        return hash((self.regions, self.placement))

    def __repr__(self) -> str:
        return (
            f"RegionDecomposition(regions={self.regions!r}, "
            f"placement={self.placement!r})"
        )

    @property
    def source_regions(self) -> Tuple[Region, ...]:
        return self.regions[: self.n_sources]

    @property
    def dynamic_regions(self) -> Tuple[Region, ...]:
        return self.regions[self.n_sources:]

    @property
    def n_regions(self) -> int:
        return len(self.heads)

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
    next queued operator or the chain's end.  With the chains laid end
    to end, each head's chain segment is a run of flat indices, and all
    segments' cells come from one gather.  A chain operator's rate in
    its segment is its arrival rate: both are the same left-to-right
    products of the chain's multipliers from the head's arrival rate,
    so they are the same floats, and the rate a segment pushes into the
    queued operator that cut it is that operator's arrival rate.
    Segments ending at a branch or merge hand over to :func:`_walk_on`,
    which adds the rest of those regions.

    Past its first operator a chain is entered only through the operator
    before, so a head's chain segment belongs to its region alone; only
    the operators :func:`_walk_on` visits can be shared between
    regions.
    """
    placement.validate(graph)
    queued = placement.queued
    n = len(graph)
    n_sources = len(graph.sources)
    chains = graph.linear_chains
    flat_ops, flat_rates = chains.flat_ops, chains.flat_rates
    head_list = [op.index for op in graph.sources] + sorted(queued)
    # The heads, then operator n, which sits at flat index n.
    heads = np.array(head_list + [n], dtype=np.intp)
    # Each segment ends at the next head on its chain (every head cuts
    # the chain it is on) or at the chain's end, whichever comes first.
    first = chains.flat_index[heads]
    cuts = first.copy()
    cuts.sort()
    first = first[:-1]
    chain_end = chains.flat_end[heads[:-1]]
    end = np.minimum(chain_end, cuts[cuts.searchsorted(first, "right")])
    # Row r's segment is flat indices first[r] .. end[r] - 1; its cells,
    # laid row by row, start at offsets[r].
    n_members = end - first
    steps, pop_keys = _constants(n, n_sources)
    rows = steps[: len(head_list)]
    member_rows = np.repeat(rows, n_members)
    offsets = np.cumsum(n_members) - n_members
    flat = steps[: len(member_rows)] + np.repeat(first - offsets, n_members)
    member_rates = flat_rates[flat]
    members = (member_rows, flat_ops[flat], member_rates)
    # Chain members at rate 0 are reached by no thread.
    reach: Dict[int, int] = {}
    if not member_rates.min() > 0.0:
        zero = flat_ops[flat[~(member_rates > 0.0)]]
        reach.update(dict.fromkeys(zero.tolist(), 0))
    # A segment that a queued operator cut pushes into it; one ending at
    # a branch or merge (the end of its head's chain) walks on.
    cut_rows = (end < chain_end).nonzero()[0]
    cut_at = end[cut_rows]
    pushes = (cut_rows, n + 2 + flat_ops[cut_at], flat_rates[cut_at])
    walks = chains.flat_walks[end].nonzero()[0].tolist()
    if walks:
        last = end[walks] - 1
        tails = _walk_on(
            graph,
            queued,
            walks,
            flat_ops[last].tolist(),
            flat_rates[last].tolist(),
            reach,
        )
        members = _join(members, tails.members)
        pushes = _join(pushes, tails.pushes)
        by_row = pushes[0].argsort(kind="stable")
        pushes = tuple(column[by_row] for column in pushes)
    pops = (rows, pop_keys[: len(rows)], flat_rates[first])
    cell_rows, cell_keys, cell_rates = (
        np.concatenate(parts) for parts in zip(members, pops, pushes)
    )
    return RegionDecomposition(
        placement,
        n_sources,
        tuple(head_list),
        cell_rows,
        cell_keys,
        cell_rates,
        len(pushes[0]),
        reach,
    )


@lru_cache(maxsize=64)
def _constants(n: int, n_sources: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only arrays :func:`decompose` slices for a graph of ``n``
    operators: the steps 0..n - 1, and the pop key of each row (``n``
    for a source region, else ``n + 1``)."""
    pop = np.full(n, n + 1)
    pop[:n_sources] = n
    arrays = (np.arange(n), pop)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _join(
    cells: Tuple[np.ndarray, ...], more: Tuple[List, ...]
) -> Tuple[np.ndarray, ...]:
    """``cells`` (rows, keys, rates) with ``more`` appended."""
    return tuple(
        np.concatenate((column, np.asarray(extra, column.dtype)))
        for column, extra in zip(cells, more)
    )


class _Tails(NamedTuple):
    """What :func:`_walk_on` adds: member cells and push cells, each as
    (rows, keys, rates)."""

    members: Tuple[List[int], List[int], List[float]]
    pushes: Tuple[List[int], List[int], List[float]]


def _walk_on(
    graph: StreamGraph,
    queued: FrozenSet[int],
    rows: List[int],
    nodes: List[int],
    rates: List[float],
    reach: Dict[int, int],
) -> _Tails:
    """The rest of each region whose chain segment ends at a branch or
    merge: row ``rows[i]``'s segment ended at ``nodes[i]`` processing
    ``rates[i]``.

    Every later member descends from the segment's end, so popping the
    pending operators by topological position visits them in graph
    order with their fan-in complete; each rate is summed from 0.0 in
    that order.  Each member gets an entry in ``reach``, raised by one
    when its rate is positive, so one reached only at rate 0 counts 0,
    not 1.  A row's pushes come by ascending queued operator.
    """
    successors = graph.successor_table
    multipliers = graph.edge_rate_multipliers
    order = graph.topological_order()
    topo_pos = graph.topological_positions
    push_key = len(graph) + 2
    tails = _Tails(([], [], []), ([], [], []))
    member_rows, member_keys, member_rates = tails.members
    push_rows, push_keys, push_rates = tails.pushes
    for row, node, rate in zip(rows, nodes, rates):
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
                break
            node = order[heappop(heap)]
            rate = pending[node]
            member_rows.append(row)
            member_keys.append(node)
            member_rates.append(rate)
            reach[node] = reach.get(node, 0) + (rate > 0.0)
        targets = sorted(pushes)
        push_rows += [row] * len(targets)
        push_keys += [push_key + q for q in targets]
        push_rates += map(pushes.__getitem__, targets)
    return tails
