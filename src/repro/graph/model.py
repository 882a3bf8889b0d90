"""Core dataflow-graph model for the simulated SPL runtime.

The paper's unit of scheduling is the *operator*: an event-driven actor
that consumes tuples on input ports and submits tuples on output ports.
Operators are connected by *streams*.  This module defines the static
graph model used by every other subsystem:

- :class:`Operator` — a node with a per-tuple computational cost
  (expressed in FLOPs, as in the paper's benchmarks), a selectivity
  (output tuples produced per input tuple) and a kind (source, sink or
  plain functional operator).
- :class:`StreamEdge` — a directed connection between two operators.
- :class:`StreamGraph` — the immutable-ish container with adjacency
  lookup, topological utilities and validation.

The graph is static for the lifetime of a processing element, exactly as
in IBM Streams: elasticity changes *how* operators are executed (which
threading model, how many threads), never the graph itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import accumulate
from types import MappingProxyType
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple,
)

import numpy as np

from ..sums import left_sum


class FanoutPolicy(enum.Enum):
    """How an operator's output tuples distribute over its successors.

    ``BROADCAST`` is plain SPL stream semantics: connecting one output
    port to several input ports delivers every tuple to every consumer
    (e.g. PacketAnalysis' ingest stream feeding all three analysis
    branches).  ``SPLIT`` models a data-parallel distribution point
    (the splitter the ``@parallel`` annotation generates): each tuple
    goes to exactly one of the successors, round-robin.
    """

    BROADCAST = "broadcast"
    SPLIT = "split"


class OperatorKind(enum.Enum):
    """Role of an operator inside a processing element.

    ``SOURCE`` operators are driven by a dedicated operator thread (they
    pull data from the outside world).  ``SINK`` operators terminate the
    graph; throughput is measured at sinks, mirroring the paper's
    "we measure application throughput at the sink operator".
    ``FUNCTIONAL`` operators are ordinary tuple-in/tuple-out actors.
    """

    SOURCE = "source"
    FUNCTIONAL = "functional"
    SINK = "sink"


@dataclass(frozen=True)
class TupleSpec:
    """Static description of the tuples flowing on a stream.

    SPL tuples are statically allocated, strongly typed structures; the
    runtime cost of pushing one through a scheduler queue is dominated by
    the payload copy.  ``payload_bytes`` is therefore the knob the paper
    sweeps from 1 B to 16384 B in its benchmarks.
    """

    payload_bytes: int = 128

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(
                f"payload_bytes must be non-negative, got {self.payload_bytes}"
            )


@dataclass(frozen=True)
class Operator:
    """A single SPL operator.

    Parameters
    ----------
    index:
        Dense, zero-based identifier.  The profiler and the elasticity
        algorithms address operators by index, just as the runtime-level
        per-thread state variable in the paper stores "the corresponding
        operator index".
    name:
        Human-readable name (unique within a graph).
    cost_flops:
        Per-tuple computational cost in floating point operations.  The
        paper's benchmarks use 1 / 100 / 10000 FLOPs for light / medium /
        heavy operators.
    kind:
        Source, functional or sink.
    selectivity:
        Average number of output tuples submitted per input tuple
        consumed.  1.0 for simple transforms; a tokenizer like the one in
        the paper's WikiWordCount example has selectivity > 1.
    uses_lock:
        Whether the operator serializes access to internal state with a
        lock.  The paper's Snk operator "maintains a local variable
        protected by a lock", which is what makes pure dynamic threading
        lose to manual threading on data-parallel graphs (Fig. 10).
    fanout:
        Output distribution policy over multiple successors (broadcast
        = every successor sees every tuple; split = data-parallel
        round-robin).
    max_rate:
        For sources: the maximum emission rate in tuples/s imposed by
        the outside world (e.g. a NIC's line rate for the paper's DPDK
        ingest).  ``None`` means unbounded.  Ignored for non-sources.
    """

    index: int
    name: str
    cost_flops: float = 100.0
    kind: OperatorKind = OperatorKind.FUNCTIONAL
    selectivity: float = 1.0
    uses_lock: bool = False
    fanout: FanoutPolicy = FanoutPolicy.BROADCAST
    max_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"operator index must be >= 0, got {self.index}")
        if self.cost_flops < 0:
            raise ValueError(
                f"cost_flops must be non-negative, got {self.cost_flops}"
            )
        if self.selectivity < 0:
            raise ValueError(
                f"selectivity must be non-negative, got {self.selectivity}"
            )
        if self.max_rate is not None and self.max_rate <= 0:
            raise ValueError(
                f"max_rate must be positive or None, got {self.max_rate}"
            )

    @property
    def is_source(self) -> bool:
        return self.kind is OperatorKind.SOURCE

    @property
    def is_sink(self) -> bool:
        return self.kind is OperatorKind.SINK

    def with_cost(self, cost_flops: float) -> "Operator":
        """Return a copy of this operator with a different cost.

        Used by workload generators that re-assign cost distributions
        (e.g. the phase change in Fig. 13) without rebuilding the graph.
        """
        return replace(self, cost_flops=cost_flops)


@dataclass(frozen=True)
class StreamEdge:
    """A directed stream connecting ``src`` -> ``dst`` operator indices."""

    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"edge endpoints must be >= 0, got {self}")
        if self.src == self.dst:
            raise ValueError(f"self loops are not allowed: {self}")


class LinearChains(NamedTuple):
    """The operators partitioned into maximal linear chains.

    Consecutive operators of a chain are joined by an edge that is the
    only out-edge of the first and the only in-edge of the second, so a
    tuple reaching a chain operator flows through the rest of the chain
    in order unless a queue cuts it.
    """

    chain: Tuple[int, ...]  # operator -> chain id
    position: Tuple[int, ...]  # operator -> position in its chain
    ops: Tuple[Tuple[int, ...], ...]  # chain id -> operators in order
    # Read-only arrays over the chains laid end to end in chain id
    # order ("flat" indices 0..n-1, n = len(graph)), for the gathers of
    # decompose.  Flat index n holds operator n.
    flat_ops: np.ndarray  # flat index -> operator (n + 1)
    flat_index: np.ndarray  # operator -> flat index (n + 1)
    flat_end: np.ndarray  # operator -> flat index past its chain (n)
    flat_rates: np.ndarray  # flat index -> arrival rate of its operator (n)
    # Whether flat index - 1 holds the last operator of a chain that
    # ends at a branch or merge (n + 1)
    flat_walks: np.ndarray


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class GraphValidationError(ValueError):
    """Raised when a stream graph violates a structural invariant."""


class StreamGraph:
    """A directed acyclic dataflow graph of operators.

    The graph is the static substrate every other module consumes.  It
    owns:

    - the operator table (dense indices 0..n-1),
    - forward and reverse adjacency,
    - the tuple spec describing payloads on its streams,
    - quantities derived once from the structure: topological order,
      sources and sinks, edge-rate multipliers, arrival rates and
      linear chains.

    Instances are conceptually immutable; the only sanctioned mutation is
    :meth:`replace_costs`, which returns a **new** graph (used for
    workload phase changes).
    """

    def __init__(
        self,
        operators: Sequence[Operator],
        edges: Iterable[StreamEdge],
        tuple_spec: Optional[TupleSpec] = None,
        name: str = "graph",
    ) -> None:
        self.name = name
        self.tuple_spec = tuple_spec if tuple_spec is not None else TupleSpec()
        self._operators: Tuple[Operator, ...] = tuple(operators)
        self._edges: Tuple[StreamEdge, ...] = tuple(edges)
        self._validate_indices()
        succs: List[List[int]] = [[] for _ in self._operators]
        preds: List[List[int]] = [[] for _ in self._operators]
        for edge in self._edges:
            succs[edge.src].append(edge.dst)
            preds[edge.dst].append(edge.src)
        self._successors = tuple(map(tuple, succs))
        self._predecessors = tuple(map(tuple, preds))
        self._topo_order = self._compute_topo_order()
        self._sources = tuple(op for op in self._operators if op.is_source)
        self._sinks = tuple(op for op in self._operators if op.is_sink)
        self._queueable = frozenset(
            op.index for op in self._operators if not op.is_source
        )
        self._validate_structure()
        # Everything below depends only on the (immutable) structure, so
        # it is derived once here rather than on every query.  Edge-rate
        # multipliers: see edge_rate_multiplier.
        self._edge_multipliers = tuple(
            0.0 if not out
            else op.selectivity / len(out)
            if op.fanout is FanoutPolicy.SPLIT
            else op.selectivity
            for op, out in zip(self._operators, self._successors)
        )
        rates = {op.index: 0.0 for op in self._operators}
        for op in self._sources:
            rates[op.index] = 1.0
        for idx in self._topo_order:
            per_succ = rates[idx] * self._edge_multipliers[idx]
            for succ in self._successors[idx]:
                rates[succ] += per_succ
        self._arrival_rates = rates
        self._sink_rate = left_sum(rates[op.index] for op in self._sinks)
        positions = [0] * len(self._operators)
        for pos, idx in enumerate(self._topo_order):
            positions[idx] = pos
        self._topo_positions = tuple(positions)
        # Built on first use: only graphs that are decomposed need them.
        self._chains: Optional[LinearChains] = None

    # ------------------------------------------------------------------
    # construction-time validation
    # ------------------------------------------------------------------
    def _validate_indices(self) -> None:
        indices = [op.index for op in self._operators]
        if indices != list(range(len(indices))):
            raise GraphValidationError(
                "operator indices must be dense and ordered 0..n-1; "
                f"got {indices[:10]}{'...' if len(indices) > 10 else ''}"
            )
        names = [op.name for op in self._operators]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise GraphValidationError(f"duplicate operator names: {dupes[:5]}")
        for edge in self._edges:
            if edge.src >= len(indices) or edge.dst >= len(indices):
                raise GraphValidationError(
                    f"edge {edge} references unknown operator"
                )

    def _compute_topo_order(self) -> Tuple[int, ...]:
        """Kahn's algorithm; raises on cycles."""
        in_degree = {op.index: 0 for op in self._operators}
        for edge in self._edges:
            in_degree[edge.dst] += 1
        ready = sorted(idx for idx, deg in in_degree.items() if deg == 0)
        order: List[int] = []
        # Use a simple list as a FIFO; graphs here are at most a few
        # thousand operators so O(n) pops are acceptable and keep the
        # implementation dependency-free.
        queue = list(ready)
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            order.append(node)
            for succ in self._successors[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self._operators):
            raise GraphValidationError("stream graph contains a cycle")
        return tuple(order)

    def _compute_chains(self) -> LinearChains:
        n = len(self._operators)
        chain, position = [0] * n, [0] * n
        ops: List[List[int]] = []
        for idx in self._topo_order:
            preds = self._predecessors[idx]
            if len(preds) == 1 and len(self._successors[preds[0]]) == 1:
                chain[idx] = chain[preds[0]]
                position[idx] = position[preds[0]] + 1
                ops[chain[idx]].append(idx)
            else:
                chain[idx] = len(ops)
                ops.append([idx])
        flat_ops = [i for c in ops for i in c] + [n]
        flat_index = [0] * (n + 1)
        for pos, idx in enumerate(flat_ops):
            flat_index[idx] = pos
        ends = list(accumulate(map(len, ops)))
        rates = self._arrival_rates
        succs = self._successors
        return LinearChains(
            tuple(chain),
            tuple(position),
            tuple(map(tuple, ops)),
            _read_only(np.array(flat_ops, dtype=np.intp)),
            _read_only(np.array(flat_index, dtype=np.intp)),
            _read_only(np.array([ends[c] for c in chain], dtype=np.intp)),
            _read_only(
                np.array([rates[i] for i in flat_ops[:n]], dtype=np.float64)
            ),
            _read_only(
                np.array(
                    [False]
                    + [bool(succs[c[-1]]) and pos == len(c) - 1
                       for c in ops for pos in range(len(c))]
                )
            ),
        )

    def _validate_structure(self) -> None:
        for op in self._operators:
            preds = self._predecessors[op.index]
            succs = self._successors[op.index]
            if op.is_source and preds:
                raise GraphValidationError(
                    f"source operator {op.name} has incoming streams"
                )
            if op.is_sink and succs:
                raise GraphValidationError(
                    f"sink operator {op.name} has outgoing streams"
                )
            if not op.is_source and not preds:
                raise GraphValidationError(
                    f"non-source operator {op.name} has no incoming streams"
                )
        if not self._sources:
            raise GraphValidationError("graph has no source operator")
        if not self._sinks:
            raise GraphValidationError("graph has no sink operator")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._operators)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._operators)

    @property
    def operators(self) -> Tuple[Operator, ...]:
        return self._operators

    @property
    def edges(self) -> Tuple[StreamEdge, ...]:
        return self._edges

    def operator(self, index: int) -> Operator:
        return self._operators[index]

    def by_name(self, name: str) -> Operator:
        for op in self._operators:
            if op.name == name:
                return op
        raise KeyError(f"no operator named {name!r} in graph {self.name!r}")

    def successors(self, index: int) -> Tuple[int, ...]:
        return self._successors[index]

    @property
    def successor_table(self) -> Tuple[Tuple[int, ...], ...]:
        """:meth:`successors` of every operator, indexed by operator."""
        return self._successors

    def predecessors(self, index: int) -> Tuple[int, ...]:
        return self._predecessors[index]

    def topological_order(self) -> Tuple[int, ...]:
        return self._topo_order

    @property
    def topological_positions(self) -> Tuple[int, ...]:
        """Each operator's index in :meth:`topological_order`."""
        return self._topo_positions

    @property
    def linear_chains(self) -> LinearChains:
        """The chains :func:`~repro.runtime.regions.decompose` walks."""
        chains = self._chains
        if chains is None:
            chains = self._chains = self._compute_chains()
        return chains

    @property
    def sources(self) -> Tuple[Operator, ...]:
        return self._sources

    @property
    def sinks(self) -> Tuple[Operator, ...]:
        return self._sinks

    @property
    def queueable(self) -> FrozenSet[int]:
        """The operators a scheduler queue may front: all but sources."""
        return self._queueable

    def fan_out(self, index: int) -> int:
        return len(self._successors[index])

    def fan_in(self, index: int) -> int:
        return len(self._predecessors[index])

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def total_cost_flops(self) -> float:
        """Sum of per-tuple costs over all operators (balanced view)."""
        return left_sum(op.cost_flops for op in self._operators)

    def edge_rate_multiplier(self, src: int) -> float:
        """Per-successor rate multiplier for operator ``src``'s outputs.

        ``selectivity`` for broadcast fan-out (every consumer gets every
        output tuple), ``selectivity / fan_out`` for split fan-out
        (data-parallel round-robin distribution).
        """
        return self._edge_multipliers[src]

    @property
    def edge_rate_multipliers(self) -> Tuple[float, ...]:
        """:meth:`edge_rate_multiplier` of every operator, by index."""
        return self._edge_multipliers

    def arrival_rates(self) -> Mapping[int, float]:
        """Relative per-operator tuple arrival rates (read-only).

        Sources are normalized to rate 1.0 each; downstream rates follow
        selectivity along edges.  Broadcast fan-out *replicates* tuples
        (every successor sees each output tuple, SPL stream semantics),
        split fan-out divides them (data parallelism); fan-in *sums*
        rates.
        """
        return MappingProxyType(self._arrival_rates)

    def sink_rate(self) -> float:
        """Summed :meth:`arrival_rates` over the sinks: tuples reaching
        the sinks per tuple emitted by each source."""
        return self._sink_rate

    def weighted_cost_flops(self) -> Dict[int, float]:
        """Per-operator cost weighted by relative arrival rate.

        This is what the sampling profiler's counter converges to: the
        probability of catching a thread inside operator *i* is
        proportional to ``rate_i * cost_i``.
        """
        rates = self.arrival_rates()
        return {
            op.index: rates[op.index] * op.cost_flops
            for op in self._operators
        }

    def replace_costs(self, costs: Dict[int, float]) -> "StreamGraph":
        """Return a new graph with updated per-operator costs.

        ``costs`` maps operator index -> new cost; unmentioned operators
        keep their cost.  Used by workload phase-change experiments.
        """
        new_ops = [
            op.with_cost(costs.get(op.index, op.cost_flops))
            for op in self._operators
        ]
        return StreamGraph(
            new_ops, self._edges, tuple_spec=self.tuple_spec, name=self.name
        )

    def with_tuple_spec(self, tuple_spec: TupleSpec) -> "StreamGraph":
        """Return a new graph with a different tuple payload spec."""
        return StreamGraph(
            self._operators, self._edges, tuple_spec=tuple_spec, name=self.name
        )

    def __repr__(self) -> str:
        return (
            f"StreamGraph(name={self.name!r}, operators={len(self)}, "
            f"edges={len(self._edges)}, "
            f"payload={self.tuple_spec.payload_bytes}B)"
        )
