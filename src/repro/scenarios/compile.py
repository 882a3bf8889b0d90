"""Compile validated scenarios into runnable graph/machine/config objects.

This is the bridge between the declarative zoo and the two execution
substrates: a :class:`CompiledScenario` carries the concrete
:class:`~repro.graph.model.StreamGraph`, the
:class:`~repro.perfmodel.machine.MachineProfile` and the
:class:`~repro.runtime.config.RuntimeConfig`, plus the open-loop
arrival process (if any) in both of the forms the backends consume:

- the DES engine takes per-source **arrival streams** (infinite
  iterators of absolute timestamps, seeded, restartable from any t0);
- the analytical perfmodel takes a **source rate cap**
  (``Operator.max_rate``), which the compiler sets to the envelope's
  long-run mean rate so ``predict_throughput`` reports
  ``limiting_factor == "source_rate"`` when the workload, not the
  machine, is the bottleneck.

Structural problems that only surface at graph-build time (a custom
edge list with a cycle, a sink with outgoing edges, ...) are re-raised
as :class:`~.schema.ScenarioError` under the ``topology`` path so
``repro scenarios validate`` reports them uniformly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - type-checking only
    from ..job.graph import JobGraph

import numpy as np

from ..graph.builder import GraphBuilder
from ..graph.cost import balanced, skewed, assign_costs
from ..graph.model import (
    FanoutPolicy,
    GraphValidationError,
    StreamGraph,
    TupleSpec,
)
from ..des.channels import ChannelConfig
from ..graph.topologies import bushy, data_parallel, mixed, pipeline
from ..perfmodel.machine import MachineProfile, laptop, power8_184, xeon_176
from ..runtime.config import ElasticityConfig, RuntimeConfig
from ..sums import left_sum
from .arrivals import ArrivalProcess
from .schema import (
    ArrivalKind,
    Backend,
    CostKind,
    MachineName,
    NodeSpec,
    OverflowPolicy,
    PayloadKind,
    Scenario,
    ScenarioError,
    TopologyShape,
    TopologySpec,
    scenario_from_dict,
)


@dataclass(frozen=True)
class CompiledScenario:
    """Everything needed to run a scenario on either backend."""

    scenario: Scenario
    graph: StreamGraph
    machine: MachineProfile
    config: RuntimeConfig
    arrival_process: Optional[ArrivalProcess]
    channel: ChannelConfig = ChannelConfig()
    # Present when the scenario declares a ``pes:`` block: the
    # topology partitioned into PE subgraphs + inter-PE channels.
    job: Optional["JobGraph"] = None

    @property
    def open_loop(self) -> bool:
        return self.arrival_process is not None

    @property
    def multi_pe(self) -> bool:
        return self.job is not None

    @property
    def overflow(self) -> str:
        return self.scenario.run.overflow.value

    @property
    def mean_arrival_rate(self) -> Optional[float]:
        """Long-run tuples/s per source, or None when saturated."""
        if self.arrival_process is None:
            return None
        return self.arrival_process.mean_rate()

    def arrival_streams(self, t0: float = 0.0) -> Dict[int, Iterator[float]]:
        """Fresh per-source arrival iterators starting at ``t0``.

        The rate envelope is evaluated at *absolute* scenario time (so
        period k of an adaptation run samples the right phase of a
        diurnal or burst pattern), but each DES measurement window
        restarts its simulation clock at zero — the yielded due times
        are therefore window-relative (``t - t0``).  Every source
        shares the same process spec but gets an independent iterator
        (offset seeds keep multi-source scenarios decorrelated): see
        :meth:`~.arrivals.ArrivalProcess.arrival_stream`.
        """
        if self.arrival_process is None:
            return {}
        streams: Dict[int, Iterator[float]] = {}
        for i, op in enumerate(self.graph.sources):
            proc = self.arrival_process
            if i > 0:
                proc = dataclasses.replace(proc, seed=proc.seed + i)
            streams[op.index] = proc.arrival_stream(t0)
        return streams

    def arrivals_factory(self):
        """``t0 -> {source_index: iterator}`` callable for the DES
        adaptation runner, or None when saturated."""
        if self.arrival_process is None:
            return None
        return self.arrival_streams

    def arrivals_key(self) -> Optional[Tuple]:
        """Hashable arrival-process identity for measurement caching."""
        if self.arrival_process is None:
            return None
        return self.arrival_process.key()

    def sink_gain(self) -> float:
        """Sink tuples produced per unit source tuple (selectivity
        product summed over sinks), for converting sink throughput back
        into admitted source rate."""
        return self.graph.sink_rate()


# ----------------------------------------------------------------------
# topology compilation
# ----------------------------------------------------------------------
_NODE_KIND_ADDERS = {
    "source": "add_source",
    "functional": "add_operator",
    "sink": "add_sink",
}


def _build_diamond(spec: TopologySpec) -> StreamGraph:
    """src -> head -> (width parallel branches) -> merge -> snk.

    The head broadcasts, so every branch sees every tuple — the shape
    of PacketAnalysis' ingest feeding all analysis branches.
    """
    b = GraphBuilder(
        f"diamond-{spec.width}", payload_bytes=spec.payload_bytes
    )
    src = b.add_source("src")
    head = b.add_operator("head", cost_flops=spec.cost.flops)
    branches = [
        b.add_operator(f"branch{i}", cost_flops=spec.cost.flops)
        for i in range(spec.width)
    ]
    merge = b.add_operator("merge", cost_flops=spec.cost.flops)
    snk = b.add_sink("snk")
    b.connect(src, head)
    b.fan_out(head, branches)
    b.fan_in(branches, merge)
    b.connect(merge, snk)
    return b.build()


def _build_custom(spec: TopologySpec) -> StreamGraph:
    b = GraphBuilder("custom", payload_bytes=spec.payload_bytes)
    for node in spec.nodes:
        _add_custom_node(b, node)
    for src, dst in spec.edges:
        b.connect(src, dst)
    return b.build()


def _add_custom_node(b: GraphBuilder, node: NodeSpec) -> None:
    fanout = FanoutPolicy(node.fanout)
    if node.kind == "source":
        b.add_source(
            node.name,
            cost_flops=node.cost_flops,
            selectivity=node.selectivity,
            fanout=fanout,
            max_rate=node.max_rate,
        )
    elif node.kind == "sink":
        b.add_sink(
            node.name,
            cost_flops=node.cost_flops,
            uses_lock=node.uses_lock,
        )
    else:
        b.add_operator(
            node.name,
            cost_flops=node.cost_flops,
            selectivity=node.selectivity,
            uses_lock=node.uses_lock,
            fanout=fanout,
        )


def compile_topology(spec: TopologySpec, seed: int = 0) -> StreamGraph:
    """Materialize a topology spec into a stream graph."""
    try:
        if spec.shape is TopologyShape.PIPELINE:
            graph = pipeline(
                spec.operators,
                cost_flops=spec.cost.flops,
                payload_bytes=spec.payload_bytes,
            )
        elif spec.shape is TopologyShape.DATA_PARALLEL:
            graph = data_parallel(
                spec.width,
                cost_flops=spec.cost.flops,
                payload_bytes=spec.payload_bytes,
            )
        elif spec.shape is TopologyShape.MIXED:
            graph = mixed(
                spec.width,
                spec.depth,
                cost_flops=spec.cost.flops,
                payload_bytes=spec.payload_bytes,
            )
        elif spec.shape is TopologyShape.TREE:
            graph = bushy(
                spec.levels,
                cost_flops=spec.cost.flops,
                payload_bytes=spec.payload_bytes,
            )
        elif spec.shape is TopologyShape.DIAMOND:
            graph = _build_diamond(spec)
        elif spec.shape is TopologyShape.CUSTOM:
            graph = _build_custom(spec)
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unhandled shape {spec.shape}")
    except GraphValidationError as exc:
        raise ScenarioError("topology", str(exc)) from exc

    if spec.cost.kind is CostKind.SKEWED:
        dist = skewed(
            heavy_fraction=spec.cost.heavy_fraction,
            medium_fraction=spec.cost.medium_fraction,
            heavy_flops=spec.cost.heavy_flops,
            medium_flops=spec.cost.medium_flops,
            light_flops=spec.cost.light_flops,
        )
        cost_seed = spec.cost.seed if spec.cost.seed is not None else seed
        graph = assign_costs(
            graph, dist, rng=np.random.default_rng(cost_seed)
        )
    elif spec.shape is TopologyShape.CUSTOM and spec.cost.kind is CostKind.BALANCED:
        pass  # custom nodes carry their own explicit costs
    return graph


def _effective_payload(scenario: Scenario) -> Optional[int]:
    payload = scenario.workload.payload
    if payload.kind is PayloadKind.MIX:
        total_w = left_sum(c.weight for c in payload.mix)
        mean = (
            left_sum(c.payload_bytes * c.weight for c in payload.mix)
            / total_w
        )
        return int(round(mean))
    if payload.payload_bytes > 0:
        return payload.payload_bytes
    return None  # inherit topology.payload_bytes


def compile_machine(scenario: Scenario) -> MachineProfile:
    spec = scenario.machine
    if spec.profile is MachineName.LAPTOP:
        return laptop(spec.cores if spec.cores is not None else 8)
    profile = (
        xeon_176() if spec.profile is MachineName.XEON else power8_184()
    )
    if spec.cores is not None:
        profile = profile.with_cores(spec.cores)
    return profile


def compile_config(scenario: Scenario, machine: MachineProfile) -> RuntimeConfig:
    run = scenario.run
    if run.adaptation_period_s is not None:
        elasticity = ElasticityConfig(
            adaptation_period_s=run.adaptation_period_s
        )
    else:
        elasticity = ElasticityConfig()
    return RuntimeConfig(
        cores=machine.logical_cores, elasticity=elasticity, seed=run.seed
    )


def _cap_source_rates(graph: StreamGraph, rate: float) -> StreamGraph:
    """Set every source's ``max_rate`` so the perfmodel backend caps
    throughput at the offered load (``limiting_factor == "source_rate"``)."""
    ops = [
        dataclasses.replace(op, max_rate=rate) if op.is_source else op
        for op in graph.operators
    ]
    return StreamGraph(
        ops, graph.edges, tuple_spec=graph.tuple_spec, name=graph.name
    )


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    """Compile a validated scenario into runnable objects.

    Raises :class:`ScenarioError` if the topology fails structural
    validation (cycles, dangling operators, ...).
    """
    graph = compile_topology(scenario.topology, seed=scenario.run.seed)
    payload = _effective_payload(scenario)
    if payload is not None and payload != graph.tuple_spec.payload_bytes:
        graph = graph.with_tuple_spec(TupleSpec(payload_bytes=payload))

    machine = compile_machine(scenario)
    config = compile_config(scenario, machine)

    arrivals = scenario.workload.arrivals
    process: Optional[ArrivalProcess] = None
    if arrivals.kind is not ArrivalKind.SATURATED:
        seed = arrivals.seed if arrivals.seed is not None else scenario.run.seed
        process = ArrivalProcess(spec=arrivals, seed=seed)
        graph = _cap_source_rates(graph, process.mean_rate())

    ch = scenario.channel
    channel = ChannelConfig(
        batch_size=ch.batch_size,
        flush_timeout_s=(
            ch.flush_timeout_ms / 1000.0
            if ch.flush_timeout_ms is not None
            else None
        ),
        prefetch=ch.prefetch,
    )

    job = None
    if scenario.pes:
        # Multi-PE jobs execute on the tuple-level DES only: the
        # perfmodel has no inter-PE channel model to route over.
        if scenario.run.backend is not Backend.DES:
            raise ScenarioError(
                "run.backend",
                "scenarios with a 'pes' block must set run.backend "
                f"to 'des', got {scenario.run.backend.value!r}",
            )
        from ..job.graph import JobGraphError, build_job_graph

        try:
            job = build_job_graph(
                graph, scenario.pes, scenario.partition
            )
        except JobGraphError as exc:
            raise ScenarioError("pes", str(exc)) from exc

    return CompiledScenario(
        scenario=scenario,
        graph=graph,
        machine=machine,
        config=config,
        arrival_process=process,
        channel=channel,
        job=job,
    )


# ----------------------------------------------------------------------
# file loading
# ----------------------------------------------------------------------
def _parse_text(text: str, suffix: str, source: str) -> object:
    if suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - pyyaml is vendored
            raise ScenarioError(
                "",
                f"cannot load {source}: PyYAML is not installed "
                "(use JSON scenarios instead)",
            ) from exc
        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(
                "", f"cannot parse {source}: {exc}"
            ) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"cannot parse {source}: {exc}") from None


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load and validate a scenario document from a YAML/JSON file."""
    path = Path(path)
    if not path.is_file():
        raise ScenarioError("", f"no such scenario file: {path}")
    data = _parse_text(path.read_text(), path.suffix.lower(), str(path))
    return scenario_from_dict(data)


def load_compiled(path: Union[str, Path]) -> CompiledScenario:
    """Load, validate and compile in one step."""
    return compile_scenario(load_scenario(path))
