"""Job graphs: partitioning one topology into a DAG of PE subgraphs.

A :class:`JobGraph` assigns every operator of a compiled scenario
topology to exactly one PE and materializes the cut edges as
*inter-PE channels*.  Each PE gets an extracted
:class:`~repro.graph.model.StreamGraph` it can run standalone in the
DES engine:

- an operator whose predecessor lives in another PE gains a
  **pseudo-source** (``in:<op>``) — the handle the job executor
  drives with a derived arrival schedule (or leaves saturated for
  pass-through channels);
- an operator with a successor in another PE gains a **pseudo-sink**
  (``out:<op>``) — so the PE's emission onto the channel is
  measurable as ordinary sink throughput.

Pseudo-operators carry a nominal 1-FLOP cost, never lock, and have
selectivity 1, so the extracted subgraph's dynamics are the owned
operators' dynamics.  Extraction is deterministic: operators keep
their relative index order, pseudo-sources precede them, pseudo-sinks
follow — the same scenario always extracts byte-identical subgraphs,
which is what lets a PE's in-job adaptation trace be compared against
a standalone run of its subgraph.

Partition validity: the assignment must cover the topology exactly
(every operator in exactly one PE) and the induced PE-level graph
must be acyclic — a cycle would mean two PEs each waiting on the
other's emission and the lockstep rate coupling has no fixed point to
find.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.builder import GraphBuilder
from ..graph.model import StreamGraph
from ..scenarios.schema import PartitionSpec, PartitionStrategy, PeSpec
from ..sums import left_sum


class JobGraphError(ValueError):
    """Raised when a PE assignment cannot form a valid job graph."""


@dataclass(frozen=True)
class JobChannel:
    """One materialized inter-PE edge (a cut edge of the topology).

    ``src_op``/``dst_op`` are the original operator names on either
    side of the cut; ``src_sink``/``dst_source`` the pseudo-operator
    names inside the extracted subgraphs; ``weight`` the fraction of
    the upstream PE's total sink emission that leaves on this channel
    (from the subgraph's selectivity-weighted arrival rates), which is
    how a multi-output PE's measured sink rate is split back into
    per-channel rates.
    """

    src_pe: str
    dst_pe: str
    src_op: str
    dst_op: str
    src_sink: str
    dst_source: str
    weight: float = 1.0


@dataclass(frozen=True)
class PeSubgraph:
    """One PE of the job: its extracted graph plus replication spec."""

    name: str
    graph: StreamGraph
    operators: Tuple[str, ...]
    replicas: int = 1
    elastic: bool = False
    max_replicas: int = 8
    # Pseudo-operator names, in deterministic order.
    ingress: Tuple[str, ...] = ()
    egress: Tuple[str, ...] = ()

    @property
    def has_real_source(self) -> bool:
        return any(
            op.is_source and not op.name.startswith("in:")
            for op in self.graph.sources
        )

    @property
    def has_real_sink(self) -> bool:
        return any(
            op.is_sink and not op.name.startswith("out:")
            for op in self.graph.sinks
        )

    def ingress_index(self, dst_source: str) -> int:
        """Subgraph operator index of a pseudo-source by name."""
        return self.graph.by_name(dst_source).index

    def real_sink_weight(self) -> float:
        """Fraction of this PE's sink emission landing in *real*
        sinks (vs. egress channels) — its direct contribution to job
        throughput."""
        rates = self.graph.arrival_rates()
        total = self.graph.sink_rate()
        if total <= 0.0:
            return 0.0
        real = left_sum(
            rates[op.index]
            for op in self.graph.sinks
            if not op.name.startswith("out:")
        )
        return real / total


@dataclass(frozen=True)
class JobGraph:
    """A partitioned topology: PE subgraphs + inter-PE channels, in
    PE-level topological order."""

    full_graph: StreamGraph
    pes: Tuple[PeSubgraph, ...]
    channels: Tuple[JobChannel, ...]
    partition: PartitionSpec = field(default_factory=PartitionSpec)

    def pe(self, name: str) -> PeSubgraph:
        for p in self.pes:
            if p.name == name:
                return p
        raise KeyError(f"no PE named {name!r}")

    def channels_into(self, pe_name: str) -> Tuple[JobChannel, ...]:
        return tuple(c for c in self.channels if c.dst_pe == pe_name)

    def channels_out_of(self, pe_name: str) -> Tuple[JobChannel, ...]:
        return tuple(c for c in self.channels if c.src_pe == pe_name)


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
_PSEUDO_FLOPS = 1.0


def _pe_level_order(
    pe_of: Dict[str, str], names: Sequence[str], graph: StreamGraph
) -> List[str]:
    """Topological order of the contracted PE-level graph; raises on a
    cycle (rate coupling needs an acyclic PE DAG)."""
    deps: Dict[str, set] = {n: set() for n in names}
    for edge in graph.edges:
        src_pe = pe_of[graph.operator(edge.src).name]
        dst_pe = pe_of[graph.operator(edge.dst).name]
        if src_pe != dst_pe:
            deps[dst_pe].add(src_pe)
    order: List[str] = []
    done: set = set()
    remaining = list(names)
    while remaining:
        progress = [n for n in remaining if deps[n] <= done]
        if not progress:
            raise JobGraphError(
                f"PE-level graph has a cycle among {sorted(remaining)}; "
                "inter-PE channels must form a DAG"
            )
        for n in progress:
            order.append(n)
            done.add(n)
            remaining.remove(n)
    return order


def _extract_subgraph(
    spec: PeSpec,
    graph: StreamGraph,
    pe_of: Dict[str, str],
) -> Tuple[StreamGraph, Tuple[str, ...], Tuple[str, ...]]:
    """Build one PE's standalone graph (see module docstring)."""
    owned = [graph.by_name(name) for name in spec.operators]
    owned.sort(key=lambda op: op.index)
    owned_names = {op.name for op in owned}

    needs_ingress: List[str] = []  # owned ops fed from another PE
    needs_egress: List[str] = []  # owned ops feeding another PE
    for edge in graph.edges:
        src_name = graph.operator(edge.src).name
        dst_name = graph.operator(edge.dst).name
        if dst_name in owned_names and src_name not in owned_names:
            if dst_name not in needs_ingress:
                needs_ingress.append(dst_name)
        if src_name in owned_names and dst_name not in owned_names:
            if src_name not in needs_egress:
                needs_egress.append(src_name)

    b = GraphBuilder(
        f"{graph.name}:{spec.name}",
        payload_bytes=graph.tuple_spec.payload_bytes,
    )
    refs: Dict[str, object] = {}
    ingress_names: List[str] = []
    egress_names: List[str] = []
    # Deterministic layout: pseudo-sources, owned operators (original
    # index order), pseudo-sinks.
    for dst_name in sorted(
        needs_ingress, key=lambda n: graph.by_name(n).index
    ):
        pseudo = f"in:{dst_name}"
        refs[pseudo] = b.add_source(pseudo, cost_flops=_PSEUDO_FLOPS)
        ingress_names.append(pseudo)
    for op in owned:
        if op.is_source:
            refs[op.name] = b.add_source(
                op.name,
                cost_flops=op.cost_flops,
                selectivity=op.selectivity,
                fanout=op.fanout,
                max_rate=op.max_rate,
            )
        elif op.is_sink:
            refs[op.name] = b.add_sink(
                op.name,
                cost_flops=op.cost_flops,
                uses_lock=op.uses_lock,
            )
        else:
            refs[op.name] = b.add_operator(
                op.name,
                cost_flops=op.cost_flops,
                selectivity=op.selectivity,
                uses_lock=op.uses_lock,
                fanout=op.fanout,
            )
    for src_name in sorted(
        needs_egress, key=lambda n: graph.by_name(n).index
    ):
        pseudo = f"out:{src_name}"
        refs[pseudo] = b.add_sink(
            pseudo, cost_flops=_PSEUDO_FLOPS, uses_lock=False
        )
        egress_names.append(pseudo)

    for edge in graph.edges:
        src_name = graph.operator(edge.src).name
        dst_name = graph.operator(edge.dst).name
        if src_name in owned_names and dst_name in owned_names:
            b.connect(refs[src_name], refs[dst_name])
    for dst_name in needs_ingress:
        b.connect(refs[f"in:{dst_name}"], refs[dst_name])
    for src_name in needs_egress:
        b.connect(refs[src_name], refs[f"out:{src_name}"])
    return b.build(), tuple(ingress_names), tuple(egress_names)


def _channel_weights(
    sub: StreamGraph, egress: Tuple[str, ...]
) -> Dict[str, float]:
    """Per-egress fraction of the subgraph's total sink emission."""
    rates = sub.arrival_rates()
    total = sub.sink_rate()
    if total <= 0.0:
        return {name: 0.0 for name in egress}
    return {
        name: rates[sub.by_name(name).index] / total for name in egress
    }


def build_job_graph(
    graph: StreamGraph,
    pe_specs: Sequence[PeSpec],
    partition: Optional[PartitionSpec] = None,
) -> JobGraph:
    """Partition ``graph`` into a :class:`JobGraph` per ``pe_specs``.

    Validates coverage (every operator assigned exactly once),
    PE-level acyclicity, and the strategy's structural constraints
    (forward channels need single-replica destinations; elastic PEs
    must be stateless — no lock-using operators — and not fed by
    forward/broadcast channels, which cannot shed load to new
    replicas).
    """
    partition = partition if partition is not None else PartitionSpec()
    if not pe_specs:
        raise JobGraphError("a job graph needs at least one PE")

    pe_of: Dict[str, str] = {}
    for spec in pe_specs:
        for name in spec.operators:
            try:
                graph.by_name(name)
            except KeyError:
                raise JobGraphError(
                    f"PE {spec.name!r} references unknown operator "
                    f"{name!r}"
                ) from None
            if name in pe_of:
                raise JobGraphError(
                    f"operator {name!r} is assigned to both "
                    f"{pe_of[name]!r} and {spec.name!r}"
                )
            pe_of[name] = spec.name
    missing = [op.name for op in graph if op.name not in pe_of]
    if missing:
        raise JobGraphError(
            f"operators not assigned to any PE: {missing}"
        )

    order = _pe_level_order(
        pe_of, [spec.name for spec in pe_specs], graph
    )
    spec_by_name = {spec.name: spec for spec in pe_specs}

    subgraphs: Dict[str, PeSubgraph] = {}
    weights: Dict[str, Dict[str, float]] = {}
    for name in order:
        spec = spec_by_name[name]
        sub, ingress, egress = _extract_subgraph(spec, graph, pe_of)
        if spec.elastic:
            locked = [
                op.name
                for op in sub
                if op.uses_lock and not op.name.startswith(("in:", "out:"))
            ]
            if locked:
                raise JobGraphError(
                    f"elastic PE {name!r} owns lock-using (stateful) "
                    f"operators {locked}; replication requires "
                    "stateless PEs"
                )
        subgraphs[name] = PeSubgraph(
            name=name,
            graph=sub,
            operators=spec.operators,
            replicas=spec.replicas,
            elastic=spec.elastic,
            max_replicas=spec.max_replicas,
            ingress=ingress,
            egress=egress,
        )
        weights[name] = _channel_weights(sub, egress)

    channels: List[JobChannel] = []
    for edge in graph.edges:
        src_name = graph.operator(edge.src).name
        dst_name = graph.operator(edge.dst).name
        src_pe, dst_pe = pe_of[src_name], pe_of[dst_name]
        if src_pe == dst_pe:
            continue
        channels.append(
            JobChannel(
                src_pe=src_pe,
                dst_pe=dst_pe,
                src_op=src_name,
                dst_op=dst_name,
                src_sink=f"out:{src_name}",
                dst_source=f"in:{dst_name}",
                weight=weights[src_pe][f"out:{src_name}"],
            )
        )

    strategy = partition.strategy
    for spec in pe_specs:
        width = spec.replicas
        if strategy is PartitionStrategy.FORWARD and width != 1:
            raise JobGraphError(
                f"forward partitioning requires single-replica PEs; "
                f"{spec.name!r} declares {width}"
            )
        if spec.elastic and strategy in (
            PartitionStrategy.FORWARD,
            PartitionStrategy.BROADCAST,
        ):
            raise JobGraphError(
                f"elastic PE {spec.name!r} cannot scale under "
                f"{strategy.value!r} channels: adding replicas sheds "
                "no load"
            )

    return JobGraph(
        full_graph=graph,
        pes=tuple(subgraphs[name] for name in order),
        channels=tuple(channels),
        partition=partition,
    )
