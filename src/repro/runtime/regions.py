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

A decomposition is a table with one row per region, held in padded
numpy arrays, so the performance model prices a placement with array
scans; :attr:`RegionDecomposition.regions` builds :class:`Region` views
of the rows on first use.
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

    A table with one row per region, in head order: the ``n_sources``
    source regions first (graph order), then one per queued operator,
    ascending.  A row lists the terms of its region's work per unit
    source rate, in the order the performance model adds them:

    ==========  ============================  ========================
    columns     ``term_keys``                 ``term_rates``
    ==========  ============================  ========================
    0           ``n`` (padding)               0.0
    1 .. K      member operators              rate each processes
    K + 1       ``n + 1`` (pop); ``n`` in a   entry rate
                source region
    K + 2 ..    ``n + 2 + q`` (push into      rate pushed into each
                queued operator ``q``)        downstream queue
    ==========  ============================  ========================

    with ``n = len(graph)`` and ``K = n_cols``.  Members come first in
    their columns, in topological order; pushes come last in theirs,
    by ascending queued operator.  The unused columns between hold key
    ``n`` at rate 0.0.  ``members``, ``member_rates``, ``entry_rates``
    and ``push_rates`` are views of those columns; ``n_members`` and
    ``push_targets`` (the queued operators, ``n`` where unused)
    complete the rows.  Every array is read-only.

    Equality compares :attr:`regions` and the placement, as for the
    tuples of :class:`Region` the rows stand for.
    """

    def __init__(
        self,
        placement: QueuePlacement,
        n_sources: int,
        heads: np.ndarray,
        term_keys: np.ndarray,
        term_rates: np.ndarray,
        n_cols: int,
        n_members: np.ndarray,
        reach: Mapping[int, int],
    ) -> None:
        for array in (heads, term_keys, term_rates, n_members):
            array.flags.writeable = False
        self.placement = placement
        self.n_sources = n_sources
        self.heads = heads
        self.term_keys = term_keys
        self.term_rates = term_rates
        self.n_cols = n_cols
        self.n_members = n_members
        # threads_reaching where it is not 1: the operators _walk_on
        # visits, which several regions may share, and chain members at
        # rate 0.
        self.reach = reach

    @property
    def members(self) -> np.ndarray:
        return self.term_keys[:, 1 : self.n_cols + 1]

    @property
    def member_rates(self) -> np.ndarray:
        return self.term_rates[:, 1 : self.n_cols + 1]

    @property
    def entry_rates(self) -> np.ndarray:
        return self.term_rates[:, self.n_cols + 1]

    @property
    def push_rates(self) -> np.ndarray:
        return self.term_rates[:, self.n_cols + 2 :]

    @cached_property
    def push_targets(self) -> np.ndarray:
        pad = self.term_keys[0, 0]
        keys = self.term_keys[:, self.n_cols + 2 :]
        targets = np.where(keys > pad, keys - (pad + 2), pad)
        targets.flags.writeable = False
        return targets

    @cached_property
    def regions(self) -> Tuple[Region, ...]:
        n_sources, k = self.n_sources, self.n_cols
        pad = int(self.term_keys[0, 0])
        return tuple(
            _region(
                (
                    head,
                    row < n_sources,
                    rates[k + 1],
                    tuple(keys[1 : n + 1]),
                    tuple(rates[1 : n + 1]),
                    tuple(
                        (key - pad - 2, rate)
                        for key, rate in zip(keys[k + 2 :], rates[k + 2 :])
                        if key > pad
                    ),
                )
            )
            for row, (head, n, keys, rates) in enumerate(
                zip(
                    self.heads.tolist(),
                    self.n_members.tolist(),
                    self.term_keys.tolist(),
                    self.term_rates.tolist(),
                )
            )
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
    next queued operator or the chain's end.  All heads' chain segments
    come from one gather over the chains laid end to end, and their
    rates from one ``np.multiply.accumulate`` along rows holding the
    entry rate, then the segment's multipliers, then 1.0: row by row the
    same left-to-right products as ``itertools.accumulate(multipliers,
    mul, initial=entry_rate)``.  The column after a segment's last
    member is the rate it pushes into the queued operator that cut it.
    Segments ending at a branch or merge hand over to :func:`_walk_on`,
    which adds the rest of those regions to their rows.

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
    flat_ops = chains.flat_ops
    head_list = [op.index for op in graph.sources] + sorted(queued)
    # The heads, then operator n, which sits at flat index n.
    heads = np.array(head_list + [n], dtype=np.intp)
    # Each segment ends at the next head on its chain (every head cuts
    # the chain it is on) or at the chain's end, whichever comes first.
    first = chains.flat_index[heads]
    cuts = first.copy()
    cuts.sort()
    heads = heads[:-1]
    first = first[:-1]
    chain_end = chains.flat_end[heads]
    end = np.minimum(chain_end, cuts[cuts.searchsorted(first, "right")])
    n_members = end - first
    width = int(n_members.max())
    # Row r's factors: its head's entry rate, its members' multipliers,
    # then 1.0.  Member j's rate lands in column j, and column
    # n_members[r] holds the rate pushed past the last member.
    steps, offsets, pad_keys, pop_keys, zeros = _constants(n, n_sources)
    n_rows = len(heads)
    inside = steps[: width + 1] <= n_members[:, None]
    grid = np.where(inside, first[:, None] + offsets[: width + 1], n)
    products = np.multiply.accumulate(chains.flat_factors[grid], axis=1)
    rows = steps[:n_rows]
    last_rates = products[rows, n_members - 1]
    reach: Dict[int, int] = {}
    # Multipliers are >= 0, so a segment's rates are all positive when
    # its last one is.
    if not last_rates.min() > 0.0:
        zero = inside[:, 1:] & ~(products[:, :width] > 0.0)
        reach.update(dict.fromkeys(flat_ops[grid[:, 1:][zero]].tolist(), 0))
    # A segment that a queued operator cut pushes into it; one ending at
    # a branch or merge (the end of its head's chain) walks on.
    cut = end < chain_end
    walks = chains.flat_walks[end].nonzero()[0].tolist()
    tails = _NO_TAILS
    if walks:
        lengths = n_members.tolist()
        rates_at_end = last_rates.tolist()
        tails = _walk_on(
            graph,
            queued,
            walks,
            [chains.ops[chains.chain[head_list[r]]][-1] for r in walks],
            [rates_at_end[r] for r in walks],
            [lengths[r] for r in walks],
            reach,
        )

    # The table, with room for what the walks add: more members, and
    # more pushes before each row's last push column.
    more = max((width, *tails.n_members)) - width
    more_pushes = max((1, *tails.n_pushes)) - 1
    key_blocks = [
        pad_keys[:n_rows],
        flat_ops[grid[:, 1:]],
        pop_keys[:n_rows],
        np.where(cut, n + 2 + flat_ops[end], n)[:, None],
    ]
    rate_blocks = [
        zeros[:n_rows],
        np.where(inside[:, 1:], products[:, :width], 0.0),
        products[:, :1],
        np.where(cut, products[rows, n_members], 0.0)[:, None],
    ]
    if more_pushes:
        key_blocks.insert(3, np.full((n_rows, more_pushes), n))
        rate_blocks.insert(3, np.zeros((n_rows, more_pushes)))
    if more:
        key_blocks.insert(2, np.full((n_rows, more), n))
        rate_blocks.insert(2, np.zeros((n_rows, more)))
    keys = np.concatenate(key_blocks, axis=1)
    rates = np.concatenate(rate_blocks, axis=1)
    if tails.rows:
        cell_rows = np.array(tails.rows)
        cell_cols = np.array(tails.cols)
        keys[cell_rows, cell_cols] = tails.keys
        rates[cell_rows, cell_cols] = tails.rates
        n_members[walks] = tails.n_members
    return RegionDecomposition(
        placement,
        n_sources,
        heads,
        keys,
        rates,
        width + more,
        n_members,
        reach,
    )


@lru_cache(maxsize=64)
def _constants(
    n: int, n_sources: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only arrays :func:`decompose` slices for a graph of ``n``
    operators: the steps 0..n + 1; the grid offsets n + 1, 0..n; and
    per row, the padding key, the pop key (``n`` for a source region)
    and 0.0, as columns."""
    pop = np.full((n, 1), n + 1)
    pop[:n_sources] = n
    arrays = (
        np.arange(n + 2),
        np.concatenate(([n + 1], np.arange(n + 1))),
        np.full((n, 1), n),
        pop,
        np.zeros((n, 1)),
    )
    for array in arrays:
        array.flags.writeable = False
    return arrays


class _Tails(NamedTuple):
    """What :func:`_walk_on` adds to the rows that walk on."""

    # One table cell per member and per push: row, column (a push's
    # counts back from the row's last, -1), term key and rate.
    rows: List[int]
    cols: List[int]
    keys: List[int]
    rates: List[float]
    # Per row that walks on: its members in all, and its pushes.
    n_members: List[int]
    n_pushes: List[int]


def _walk_on(
    graph: StreamGraph,
    queued: FrozenSet[int],
    rows: List[int],
    nodes: List[int],
    rates: List[float],
    n_members: List[int],
    reach: Dict[int, int],
) -> _Tails:
    """The rest of each region whose chain segment ends at a branch or
    merge: row ``rows[i]``'s segment of ``n_members[i]`` members ended
    at ``nodes[i]`` processing ``rates[i]``.

    Every later member descends from the segment's end, so popping the
    pending operators by topological position visits them in graph
    order with their fan-in complete; each rate is summed from 0.0 in
    that order.  Each member gets an entry in ``reach``, raised by one
    when its rate is positive, so one reached only at rate 0 counts 0,
    not 1.  A row's pushes fill its last columns, by ascending queued
    operator.
    """
    successors = graph.successor_table
    multipliers = graph.edge_rate_multipliers
    order = graph.topological_order()
    topo_pos = graph.topological_positions
    push_key = len(graph) + 2
    tails = _Tails([], [], [], [], [], [])
    cell_rows, cols, keys, cell_rates = tails[:4]
    for row, node, rate, count in zip(rows, nodes, rates, n_members):
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
            count += 1
            cell_rows.append(row)
            cols.append(count)
            keys.append(node)
            cell_rates.append(rate)
            reach[node] = reach.get(node, 0) + (rate > 0.0)
        tails.n_members.append(count)
        tails.n_pushes.append(len(pushes))
        if pushes:
            targets = sorted(pushes)
            cell_rows += [row] * len(targets)
            cols += range(-len(targets), 0)
            keys += [push_key + q for q in targets]
            cell_rates += map(pushes.__getitem__, targets)
    return tails


_NO_TAILS = _Tails((), (), (), (), (), ())
