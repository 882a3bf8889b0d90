"""Declarative scenario schema: the validated vocabulary of the zoo.

A *scenario* is everything needed to reproduce one elastic run: a graph
shape, an operator cost profile, a machine profile, a time-varying
open-loop workload and the run settings.  Scenarios are plain data —
stdlib dataclasses with enum-controlled vocabularies — so they travel
as YAML/JSON documents, round-trip losslessly and fail loudly with
errors that *name the offending field* ("workload.arrivals.rate: must
be > 0, got -5.0").

The schema deliberately mirrors the shape of AsyncFlow's Pydantic
``SimulationPayload`` (workload profile / topology graph / settings)
without the dependency: every leaf is validated in
:func:`scenario_from_dict` with a dotted field path, and every enum
error lists the accepted values.

Layers
------
- :class:`TopologySpec` — graph shape (pipeline / data-parallel fan /
  mixed / tree / diamond / custom node list) + cost profile + payload.
- :class:`WorkloadSpec` — the open-loop arrival process
  (:class:`ArrivalSpec` — saturated / deterministic / Poisson, with a
  :class:`ModulationSpec` rate envelope: diurnal, ON/OFF bursts, flash
  crowds, ramps) and the payload-size mix.
- :class:`MachineSpec` — named machine profile + core count.
- :class:`RunSpec` — backend, seed, measurement windows, queue
  capacity and overflow policy.
- :class:`ChannelSpec` — DES batched-channel knobs (batch size, flush
  timeout, prefetch).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple


class ScenarioError(ValueError):
    """A scenario document violates the schema.

    Carries the dotted path of the offending field so tooling (and
    humans) can jump straight to it.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


# ----------------------------------------------------------------------
# enum vocabulary
# ----------------------------------------------------------------------
class TopologyShape(enum.Enum):
    PIPELINE = "pipeline"
    DATA_PARALLEL = "data_parallel"
    MIXED = "mixed"
    TREE = "tree"
    DIAMOND = "diamond"
    CUSTOM = "custom"


class CostKind(enum.Enum):
    BALANCED = "balanced"
    SKEWED = "skewed"


class ArrivalKind(enum.Enum):
    """How tuples enter the PE.

    ``SATURATED`` is the paper's implicit closed-loop assumption: the
    source always has a next tuple, so measured throughput equals
    capacity.  The other kinds are *open-loop*: tuples arrive on an
    external schedule, the source admits them when due, and throughput
    is bounded by offered load.
    """

    SATURATED = "saturated"
    DETERMINISTIC = "deterministic"
    POISSON = "poisson"


class ModulationKind(enum.Enum):
    """Time-varying shape applied to the base arrival rate."""

    NONE = "none"
    DIURNAL = "diurnal"
    ONOFF = "onoff"
    FLASH_CROWD = "flash_crowd"
    RAMP = "ramp"


class PayloadKind(enum.Enum):
    FIXED = "fixed"
    MIX = "mix"


class OverflowPolicy(enum.Enum):
    """What an open-loop source does when its ingress queue is full.

    ``BLOCK`` keeps the closed-loop backpressure semantics (the source
    stalls, helping drain downstream).  ``DROP`` is ingress load
    shedding: the tuple is discarded and counted
    (``des.dropped_tuples``), which is what lets bounded queues
    actually overflow under a burst instead of silently throttling the
    arrival process.
    """

    BLOCK = "block"
    DROP = "drop"


class Backend(enum.Enum):
    DES = "des"
    PERFMODEL = "perfmodel"
    BOTH = "both"


class MachineName(enum.Enum):
    XEON = "xeon"
    POWER8 = "power8"
    LAPTOP = "laptop"


class PartitionStrategy(enum.Enum):
    """How tuples route across the replicas of a downstream PE.

    Mirrors the partition-strategy vocabulary of streaming dataflow
    systems (Ray streaming's ``PStrategy``, Flink's partitioners):

    - ``forward``: pass-through to a single replica — the strategy a
      1:1 inter-PE edge uses; requires ``replicas == 1`` downstream.
    - ``round_robin``: tuple ``i`` goes to replica ``i mod R``.
    - ``shuffle``: seeded-hash of the tuple sequence number — a
      deterministic stand-in for random spraying.
    - ``key_hash``: seeded-hash of the tuple key over a synthetic
      ``key_space``; replica shares follow the key-popularity split.
    - ``broadcast``: every replica receives every tuple.

    Defined here (not in :mod:`repro.job`) so the scenario schema has
    no import edge into the job layer — the job layer imports *us*.
    """

    FORWARD = "forward"
    ROUND_ROBIN = "round_robin"
    SHUFFLE = "shuffle"
    KEY_HASH = "key_hash"
    BROADCAST = "broadcast"


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CostSpec:
    """Per-operator cost profile for generated shapes."""

    kind: CostKind = CostKind.BALANCED
    flops: float = 100.0
    heavy_fraction: float = 0.10
    medium_fraction: float = 0.30
    heavy_flops: float = 10_000.0
    medium_flops: float = 100.0
    light_flops: float = 1.0
    seed: Optional[int] = None


@dataclass(frozen=True)
class NodeSpec:
    """One operator of a custom topology."""

    name: str
    kind: str = "functional"  # source | functional | sink
    cost_flops: float = 100.0
    selectivity: float = 1.0
    uses_lock: bool = False
    fanout: str = "broadcast"  # broadcast | split
    max_rate: Optional[float] = None


@dataclass(frozen=True)
class TopologySpec:
    """Graph shape + parameters.

    Which parameters apply depends on ``shape``:

    - ``pipeline``: ``operators``
    - ``data_parallel``: ``width``
    - ``mixed``: ``width`` x ``depth``
    - ``tree``: ``levels`` (the Fig. 8(d) bushy split/merge tree)
    - ``diamond``: ``width`` parallel branches between a broadcast
      head and a merge operator
    - ``custom``: explicit ``nodes`` + ``edges`` (by operator name)
    """

    shape: TopologyShape = TopologyShape.PIPELINE
    operators: int = 8
    width: int = 4
    depth: int = 4
    levels: int = 3
    payload_bytes: int = 128
    cost: CostSpec = field(default_factory=CostSpec)
    nodes: Tuple[NodeSpec, ...] = ()
    edges: Tuple[Tuple[str, str], ...] = ()


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModulationSpec:
    """Piecewise rate envelope applied to the base arrival rate.

    Parameters by ``kind`` (unused ones are ignored):

    - ``diurnal``: sinusoid between ``low_factor`` and ``high_factor``
      with period ``period_s``, discretized into ``steps`` constant
      slots per period.
    - ``onoff``: ``on_s`` seconds at the base rate, then ``off_s``
      seconds of silence, repeating.
    - ``flash_crowd``: base rate until ``at_s``; linear ramp to
      ``factor`` x base over ``ramp_s``; hold ``hold_s``; ramp back
      down over ``ramp_s``; base rate forever after.
    - ``ramp``: ``low_factor`` x base until ``at_s``, then a linear
      ramp to ``high_factor`` x base over ``ramp_s``, holding there.
    """

    kind: ModulationKind = ModulationKind.NONE
    period_s: float = 60.0
    low_factor: float = 0.2
    high_factor: float = 1.0
    steps: int = 32
    on_s: float = 1.0
    off_s: float = 1.0
    at_s: float = 0.0
    ramp_s: float = 1.0
    hold_s: float = 1.0
    factor: float = 5.0


@dataclass(frozen=True)
class ArrivalSpec:
    """The open-loop arrival process of every source operator.

    ``rate`` is the base arrival rate in tuples/s per source
    (irrelevant for ``saturated``).  ``seed`` overrides the run seed
    for the arrival stream alone.
    """

    kind: ArrivalKind = ArrivalKind.SATURATED
    rate: float = 0.0
    modulation: ModulationSpec = field(default_factory=ModulationSpec)
    seed: Optional[int] = None

    @property
    def open_loop(self) -> bool:
        return self.kind is not ArrivalKind.SATURATED


@dataclass(frozen=True)
class PayloadChoice:
    payload_bytes: int
    weight: float


@dataclass(frozen=True)
class PayloadSpec:
    """Tuple payload size, fixed or a weighted mix.

    A mix compiles to its weighted-mean payload (both substrates charge
    copy cost per tuple from a single static spec), preserving the
    aggregate bandwidth demand of the declared mix.
    """

    kind: PayloadKind = PayloadKind.FIXED
    payload_bytes: int = 0  # 0 = inherit topology.payload_bytes
    mix: Tuple[PayloadChoice, ...] = ()


@dataclass(frozen=True)
class WorkloadSpec:
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    payload: PayloadSpec = field(default_factory=PayloadSpec)


# ----------------------------------------------------------------------
# channel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChannelSpec:
    """Batched-channel configuration for the DES backend.

    Mirrors :class:`repro.des.channels.ChannelConfig`: ``batch_size``
    tuples move per coalesced simulator event, ``flush_timeout_ms``
    bounds the simulated span one burst event may cover (``None``
    leaves the batch size as the only bound), ``prefetch`` lets a
    scheduler thread drain extra batches from a claimed port before
    rescanning (trades work-finding fidelity for fewer events).  The
    defaults are byte-compatible with historical runs.
    """

    batch_size: int = 8
    flush_timeout_ms: Optional[float] = None
    prefetch: int = 0


# ----------------------------------------------------------------------
# machine + run settings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineSpec:
    profile: MachineName = MachineName.LAPTOP
    cores: Optional[int] = None


@dataclass(frozen=True)
class RunSpec:
    """Execution settings shared by both backends.

    ``warmup_s`` / ``measure_s`` / ``queue_capacity`` / ``overflow`` /
    ``max_periods`` drive the DES backend; ``duration_s`` drives the
    perfmodel backend's virtual-clock executor.  ``jobs`` caps the
    worker-pool width for multi-PE scenarios, as does the job's widest
    wave of concurrently runnable PEs (None defers to the ``--jobs``
    flag / ``REPRO_JOB_WORKERS``; 1 forces the sequential path);
    single-PE scenarios ignore it.  ``warm_start`` selects the
    coordinator seeding policy (``off`` / ``model`` / ``history`` /
    ``auto``; None defers to the ``--warm-start`` flag /
    ``REPRO_WARM_START``, which default to ``off``).
    """

    backend: Backend = Backend.BOTH
    seed: int = 0
    adaptation_period_s: Optional[float] = None
    warmup_s: float = 0.001
    measure_s: float = 0.004
    queue_capacity: int = 16
    overflow: OverflowPolicy = OverflowPolicy.BLOCK
    max_periods: int = 60
    stop_after_stable_periods: Optional[int] = 8
    duration_s: float = 2000.0
    profile_from_execution: bool = True
    jobs: Optional[int] = None
    warm_start: Optional[str] = None


@dataclass(frozen=True)
class PeSpec:
    """One processing element of a multi-PE job.

    ``operators`` names the scenario-topology operators this PE owns
    (every operator must be assigned to exactly one PE).  ``replicas``
    is the initial data-parallel width; with ``elastic: true`` the
    job-level coordinator may scale the PE out/in between 1 and
    ``max_replicas`` replicas at run time.  Elastic PEs must be
    stateless in the paper's sense: no lock-using operators.
    """

    name: str
    operators: Tuple[str, ...] = ()
    replicas: int = 1
    elastic: bool = False
    max_replicas: int = 8


@dataclass(frozen=True)
class PartitionSpec:
    """How inter-PE channels route tuples across downstream replicas.

    ``seed`` overrides the run seed for routing alone; ``key_space``
    is the synthetic key cardinality ``key_hash`` distributes over.
    """

    strategy: PartitionStrategy = PartitionStrategy.FORWARD
    seed: Optional[int] = None
    key_space: int = 1024


@dataclass(frozen=True)
class Scenario:
    """A complete, validated scenario document."""

    name: str
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    machine: MachineSpec = field(default_factory=MachineSpec)
    run: RunSpec = field(default_factory=RunSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    pes: Tuple[PeSpec, ...] = ()
    partition: PartitionSpec = field(default_factory=PartitionSpec)


FORMAT_VERSION = 1

_VALID_NODE_KINDS = ("source", "functional", "sink")
_VALID_FANOUTS = ("broadcast", "split")


# ----------------------------------------------------------------------
# parsing helpers (every error names its field)
# ----------------------------------------------------------------------
def _mapping(data: Any, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ScenarioError(
            path, f"expected a mapping, got {type(data).__name__}"
        )
    return data


def _check_keys(data: Mapping, path: str, allowed: Tuple[str, ...]) -> None:
    for key in data:
        if key not in allowed:
            raise ScenarioError(
                f"{path}.{key}" if path else str(key),
                f"unknown field (valid fields: {', '.join(allowed)})",
            )


def _enum(value: Any, path: str, enum_cls: Any) -> Any:
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(repr(e.value) for e in enum_cls)
        raise ScenarioError(
            path,
            f"unknown value {value!r} (valid values: {valid})",
        ) from None


def _number(
    value: Any,
    path: str,
    *,
    integer: bool = False,
    minimum: Optional[float] = None,
    positive: bool = False,
    nonnegative: bool = False,
) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(
            path, f"expected a number, got {value!r}"
        )
    if integer and int(value) != value:
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    num = int(value) if integer else float(value)
    if positive and num <= 0:
        raise ScenarioError(path, f"must be > 0, got {num}")
    if nonnegative and num < 0:
        raise ScenarioError(path, f"must be >= 0, got {num}")
    if minimum is not None and num < minimum:
        raise ScenarioError(path, f"must be >= {minimum}, got {num}")
    return num


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioError(
            path, f"expected a non-empty string, got {value!r}"
        )
    return value


def _bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(path, f"expected a boolean, got {value!r}")
    return value


# ----------------------------------------------------------------------
# from_dict
# ----------------------------------------------------------------------
def _cost_from_dict(data: Any, path: str) -> CostSpec:
    data = _mapping(data, path)
    _check_keys(
        data,
        path,
        (
            "kind",
            "flops",
            "heavy_fraction",
            "medium_fraction",
            "heavy_flops",
            "medium_flops",
            "light_flops",
            "seed",
        ),
    )
    kind = _enum(data.get("kind", "balanced"), f"{path}.kind", CostKind)
    spec = CostSpec(
        kind=kind,
        flops=_number(
            data.get("flops", 100.0), f"{path}.flops", nonnegative=True
        ),
        heavy_fraction=_number(
            data.get("heavy_fraction", 0.10),
            f"{path}.heavy_fraction",
            nonnegative=True,
        ),
        medium_fraction=_number(
            data.get("medium_fraction", 0.30),
            f"{path}.medium_fraction",
            nonnegative=True,
        ),
        heavy_flops=_number(
            data.get("heavy_flops", 10_000.0),
            f"{path}.heavy_flops",
            nonnegative=True,
        ),
        medium_flops=_number(
            data.get("medium_flops", 100.0),
            f"{path}.medium_flops",
            nonnegative=True,
        ),
        light_flops=_number(
            data.get("light_flops", 1.0),
            f"{path}.light_flops",
            nonnegative=True,
        ),
        seed=(
            _number(data["seed"], f"{path}.seed", integer=True)
            if data.get("seed") is not None
            else None
        ),
    )
    if spec.heavy_fraction + spec.medium_fraction > 1.0:
        raise ScenarioError(
            f"{path}.heavy_fraction",
            "heavy_fraction + medium_fraction must be <= 1, got "
            f"{spec.heavy_fraction + spec.medium_fraction}",
        )
    return spec


def _node_from_dict(data: Any, path: str) -> NodeSpec:
    data = _mapping(data, path)
    _check_keys(
        data,
        path,
        (
            "name",
            "kind",
            "cost_flops",
            "selectivity",
            "uses_lock",
            "fanout",
            "max_rate",
        ),
    )
    if "name" not in data:
        raise ScenarioError(f"{path}.name", "operator name is required")
    kind = data.get("kind", "functional")
    if kind not in _VALID_NODE_KINDS:
        raise ScenarioError(
            f"{path}.kind",
            f"unknown value {kind!r} "
            f"(valid values: {', '.join(map(repr, _VALID_NODE_KINDS))})",
        )
    fanout = data.get("fanout", "broadcast")
    if fanout not in _VALID_FANOUTS:
        raise ScenarioError(
            f"{path}.fanout",
            f"unknown value {fanout!r} "
            f"(valid values: {', '.join(map(repr, _VALID_FANOUTS))})",
        )
    return NodeSpec(
        name=_string(data["name"], f"{path}.name"),
        kind=kind,
        cost_flops=_number(
            data.get("cost_flops", 100.0),
            f"{path}.cost_flops",
            nonnegative=True,
        ),
        selectivity=_number(
            data.get("selectivity", 1.0),
            f"{path}.selectivity",
            nonnegative=True,
        ),
        uses_lock=_bool(
            data.get("uses_lock", False), f"{path}.uses_lock"
        ),
        fanout=fanout,
        max_rate=(
            _number(data["max_rate"], f"{path}.max_rate", positive=True)
            if data.get("max_rate") is not None
            else None
        ),
    )


def _topology_from_dict(data: Any, path: str) -> TopologySpec:
    data = _mapping(data, path)
    _check_keys(
        data,
        path,
        (
            "shape",
            "operators",
            "width",
            "depth",
            "levels",
            "payload_bytes",
            "cost",
            "nodes",
            "edges",
        ),
    )
    shape = _enum(
        data.get("shape", "pipeline"), f"{path}.shape", TopologyShape
    )
    nodes: Tuple[NodeSpec, ...] = ()
    edges: Tuple[Tuple[str, str], ...] = ()
    if shape is TopologyShape.CUSTOM:
        raw_nodes = data.get("nodes")
        if not isinstance(raw_nodes, (list, tuple)) or not raw_nodes:
            raise ScenarioError(
                f"{path}.nodes",
                "custom topologies require a non-empty node list",
            )
        nodes = tuple(
            _node_from_dict(n, f"{path}.nodes[{i}]")
            for i, n in enumerate(raw_nodes)
        )
        names = [n.name for n in nodes]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ScenarioError(
                f"{path}.nodes", f"duplicate operator names: {dupes}"
            )
        raw_edges = data.get("edges")
        if not isinstance(raw_edges, (list, tuple)) or not raw_edges:
            raise ScenarioError(
                f"{path}.edges",
                "custom topologies require a non-empty edge list",
            )
        known = set(names)
        parsed = []
        for i, e in enumerate(raw_edges):
            epath = f"{path}.edges[{i}]"
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ScenarioError(
                    epath, f"expected a [src, dst] pair, got {e!r}"
                )
            src, dst = _string(e[0], f"{epath}[0]"), _string(
                e[1], f"{epath}[1]"
            )
            for end, which in ((src, 0), (dst, 1)):
                if end not in known:
                    raise ScenarioError(
                        f"{epath}[{which}]",
                        f"unknown operator name {end!r} "
                        f"(known: {', '.join(sorted(known))})",
                    )
            if src == dst:
                raise ScenarioError(
                    epath, f"self loops are not allowed ({src!r})"
                )
            parsed.append((src, dst))
        edges = tuple(parsed)
    elif data.get("nodes") or data.get("edges"):
        raise ScenarioError(
            f"{path}.nodes",
            f"nodes/edges are only valid for shape 'custom', "
            f"not {shape.value!r}",
        )
    return TopologySpec(
        shape=shape,
        operators=_number(
            data.get("operators", 8),
            f"{path}.operators",
            integer=True,
            minimum=1,
        ),
        width=_number(
            data.get("width", 4), f"{path}.width", integer=True, minimum=1
        ),
        depth=_number(
            data.get("depth", 4), f"{path}.depth", integer=True, minimum=1
        ),
        levels=_number(
            data.get("levels", 3), f"{path}.levels", integer=True, minimum=1
        ),
        payload_bytes=_number(
            data.get("payload_bytes", 128),
            f"{path}.payload_bytes",
            integer=True,
            nonnegative=True,
        ),
        cost=_cost_from_dict(data.get("cost", {}), f"{path}.cost"),
        nodes=nodes,
        edges=edges,
    )


def _modulation_from_dict(data: Any, path: str) -> ModulationSpec:
    data = _mapping(data, path)
    _check_keys(
        data,
        path,
        (
            "kind",
            "period_s",
            "low_factor",
            "high_factor",
            "steps",
            "on_s",
            "off_s",
            "at_s",
            "ramp_s",
            "hold_s",
            "factor",
        ),
    )
    kind = _enum(data.get("kind", "none"), f"{path}.kind", ModulationKind)
    spec = ModulationSpec(
        kind=kind,
        period_s=_number(
            data.get("period_s", 60.0), f"{path}.period_s", positive=True
        ),
        low_factor=_number(
            data.get("low_factor", 0.2),
            f"{path}.low_factor",
            nonnegative=True,
        ),
        high_factor=_number(
            data.get("high_factor", 1.0),
            f"{path}.high_factor",
            nonnegative=True,
        ),
        steps=_number(
            data.get("steps", 32), f"{path}.steps", integer=True, minimum=2
        ),
        on_s=_number(
            data.get("on_s", 1.0), f"{path}.on_s", positive=True
        ),
        off_s=_number(
            data.get("off_s", 1.0), f"{path}.off_s", nonnegative=True
        ),
        at_s=_number(
            data.get("at_s", 0.0), f"{path}.at_s", nonnegative=True
        ),
        ramp_s=_number(
            data.get("ramp_s", 1.0), f"{path}.ramp_s", positive=True
        ),
        hold_s=_number(
            data.get("hold_s", 1.0), f"{path}.hold_s", nonnegative=True
        ),
        factor=_number(
            data.get("factor", 5.0), f"{path}.factor", positive=True
        ),
    )
    if kind is ModulationKind.DIURNAL and spec.low_factor > spec.high_factor:
        raise ScenarioError(
            f"{path}.low_factor",
            f"low_factor ({spec.low_factor}) must not exceed "
            f"high_factor ({spec.high_factor})",
        )
    return spec


def _arrivals_from_dict(data: Any, path: str) -> ArrivalSpec:
    data = _mapping(data, path)
    _check_keys(data, path, ("kind", "rate", "modulation", "seed"))
    kind = _enum(data.get("kind", "saturated"), f"{path}.kind", ArrivalKind)
    rate = 0.0
    if kind is not ArrivalKind.SATURATED:
        if "rate" not in data:
            raise ScenarioError(
                f"{path}.rate",
                f"open-loop arrivals ({kind.value!r}) require a rate",
            )
        rate = _number(data["rate"], f"{path}.rate", positive=True)
    elif data.get("rate"):  # zero/absent is fine for saturated
        raise ScenarioError(
            f"{path}.rate",
            "saturated arrivals take no rate (remove the field or "
            "pick an open-loop kind)",
        )
    return ArrivalSpec(
        kind=kind,
        rate=rate,
        modulation=_modulation_from_dict(
            data.get("modulation", {}), f"{path}.modulation"
        ),
        seed=(
            _number(data["seed"], f"{path}.seed", integer=True)
            if data.get("seed") is not None
            else None
        ),
    )


def _payload_from_dict(data: Any, path: str) -> PayloadSpec:
    data = _mapping(data, path)
    _check_keys(data, path, ("kind", "payload_bytes", "mix"))
    kind = _enum(data.get("kind", "fixed"), f"{path}.kind", PayloadKind)
    mix: Tuple[PayloadChoice, ...] = ()
    if kind is PayloadKind.MIX:
        raw = data.get("mix")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ScenarioError(
                f"{path}.mix", "payload mix requires a non-empty list"
            )
        entries = []
        for i, entry in enumerate(raw):
            epath = f"{path}.mix[{i}]"
            entry = _mapping(entry, epath)
            _check_keys(entry, epath, ("payload_bytes", "weight"))
            if "payload_bytes" not in entry:
                raise ScenarioError(
                    f"{epath}.payload_bytes", "payload_bytes is required"
                )
            entries.append(
                PayloadChoice(
                    payload_bytes=_number(
                        entry["payload_bytes"],
                        f"{epath}.payload_bytes",
                        integer=True,
                        nonnegative=True,
                    ),
                    weight=_number(
                        entry.get("weight", 1.0),
                        f"{epath}.weight",
                        positive=True,
                    ),
                )
            )
        mix = tuple(entries)
    elif data.get("mix"):
        raise ScenarioError(
            f"{path}.mix", "mix entries are only valid for kind 'mix'"
        )
    return PayloadSpec(
        kind=kind,
        payload_bytes=_number(
            data.get("payload_bytes", 0),
            f"{path}.payload_bytes",
            integer=True,
            nonnegative=True,
        ),
        mix=mix,
    )


def _workload_from_dict(data: Any, path: str) -> WorkloadSpec:
    data = _mapping(data, path)
    _check_keys(data, path, ("arrivals", "payload"))
    return WorkloadSpec(
        arrivals=_arrivals_from_dict(
            data.get("arrivals", {}), f"{path}.arrivals"
        ),
        payload=_payload_from_dict(
            data.get("payload", {}), f"{path}.payload"
        ),
    )


def _channel_from_dict(data: Any, path: str) -> ChannelSpec:
    data = _mapping(data, path)
    _check_keys(data, path, ("batch_size", "flush_timeout_ms", "prefetch"))
    return ChannelSpec(
        batch_size=_number(
            data.get("batch_size", 8),
            f"{path}.batch_size",
            integer=True,
            minimum=1,
        ),
        flush_timeout_ms=(
            _number(
                data["flush_timeout_ms"],
                f"{path}.flush_timeout_ms",
                positive=True,
            )
            if data.get("flush_timeout_ms") is not None
            else None
        ),
        prefetch=_number(
            data.get("prefetch", 0),
            f"{path}.prefetch",
            integer=True,
            nonnegative=True,
        ),
    )


def _machine_from_dict(data: Any, path: str) -> MachineSpec:
    data = _mapping(data, path)
    _check_keys(data, path, ("profile", "cores"))
    return MachineSpec(
        profile=_enum(
            data.get("profile", "laptop"), f"{path}.profile", MachineName
        ),
        cores=(
            _number(
                data["cores"], f"{path}.cores", integer=True, minimum=1
            )
            if data.get("cores") is not None
            else None
        ),
    )


def _run_from_dict(data: Any, path: str) -> RunSpec:
    data = _mapping(data, path)
    _check_keys(
        data,
        path,
        (
            "backend",
            "seed",
            "adaptation_period_s",
            "warmup_s",
            "measure_s",
            "queue_capacity",
            "overflow",
            "max_periods",
            "stop_after_stable_periods",
            "duration_s",
            "profile_from_execution",
            "jobs",
            "warm_start",
        ),
    )
    return RunSpec(
        backend=_enum(data.get("backend", "both"), f"{path}.backend", Backend),
        seed=_number(
            data.get("seed", 0), f"{path}.seed", integer=True
        ),
        adaptation_period_s=(
            _number(
                data["adaptation_period_s"],
                f"{path}.adaptation_period_s",
                positive=True,
            )
            if data.get("adaptation_period_s") is not None
            else None
        ),
        warmup_s=_number(
            data.get("warmup_s", 0.001), f"{path}.warmup_s", nonnegative=True
        ),
        measure_s=_number(
            data.get("measure_s", 0.004), f"{path}.measure_s", positive=True
        ),
        queue_capacity=_number(
            data.get("queue_capacity", 16),
            f"{path}.queue_capacity",
            integer=True,
            minimum=1,
        ),
        overflow=_enum(
            data.get("overflow", "block"), f"{path}.overflow", OverflowPolicy
        ),
        max_periods=_number(
            data.get("max_periods", 60),
            f"{path}.max_periods",
            integer=True,
            minimum=1,
        ),
        stop_after_stable_periods=(
            _number(
                data["stop_after_stable_periods"],
                f"{path}.stop_after_stable_periods",
                integer=True,
                minimum=1,
            )
            if data.get("stop_after_stable_periods") is not None
            else None
        ),
        duration_s=_number(
            data.get("duration_s", 2000.0),
            f"{path}.duration_s",
            positive=True,
        ),
        profile_from_execution=_bool(
            data.get("profile_from_execution", True),
            f"{path}.profile_from_execution",
        ),
        jobs=(
            _number(
                data["jobs"],
                f"{path}.jobs",
                integer=True,
                minimum=1,
            )
            if data.get("jobs") is not None
            else None
        ),
        warm_start=_warm_start_mode(
            data.get("warm_start"), f"{path}.warm_start"
        ),
    )


def _warm_start_mode(value: Any, path: str) -> Optional[str]:
    if value is None:
        return None
    from ..core.warmstart import VALID_MODES

    if not isinstance(value, str) or value not in VALID_MODES:
        raise ScenarioError(
            path,
            f"unknown value {value!r} "
            f"(valid values: {', '.join(VALID_MODES)})",
        )
    return value


def _pe_from_dict(data: Any, path: str) -> PeSpec:
    data = _mapping(data, path)
    _check_keys(
        data,
        path,
        ("name", "operators", "replicas", "elastic", "max_replicas"),
    )
    if "name" not in data:
        raise ScenarioError(f"{path}.name", "PE name is required")
    operators = data.get("operators", [])
    if not isinstance(operators, (list, tuple)) or not operators:
        raise ScenarioError(
            f"{path}.operators",
            f"expected a non-empty list of operator names, got "
            f"{operators!r}",
        )
    spec = PeSpec(
        name=_string(data["name"], f"{path}.name"),
        operators=tuple(
            _string(op, f"{path}.operators[{i}]")
            for i, op in enumerate(operators)
        ),
        replicas=_number(
            data.get("replicas", 1),
            f"{path}.replicas",
            integer=True,
            minimum=1,
        ),
        elastic=_bool(data.get("elastic", False), f"{path}.elastic"),
        max_replicas=_number(
            data.get("max_replicas", 8),
            f"{path}.max_replicas",
            integer=True,
            minimum=1,
        ),
    )
    if spec.replicas > spec.max_replicas:
        raise ScenarioError(
            f"{path}.replicas",
            f"replicas ({spec.replicas}) exceeds max_replicas "
            f"({spec.max_replicas})",
        )
    return spec


def _pes_from_dict(data: Any, path: str) -> Tuple[PeSpec, ...]:
    if not isinstance(data, (list, tuple)):
        raise ScenarioError(
            path, f"expected a list of PE mappings, got {data!r}"
        )
    pes = tuple(
        _pe_from_dict(pe, f"{path}[{i}]") for i, pe in enumerate(data)
    )
    seen_names: set = set()
    seen_ops: Dict[str, str] = {}
    for i, pe in enumerate(pes):
        if pe.name in seen_names:
            raise ScenarioError(
                f"{path}[{i}].name", f"duplicate PE name {pe.name!r}"
            )
        seen_names.add(pe.name)
        for op in pe.operators:
            if op in seen_ops:
                raise ScenarioError(
                    f"{path}[{i}].operators",
                    f"operator {op!r} is assigned to both "
                    f"{seen_ops[op]!r} and {pe.name!r}",
                )
            seen_ops[op] = pe.name
    return pes


def _partition_from_dict(data: Any, path: str) -> PartitionSpec:
    data = _mapping(data, path)
    _check_keys(data, path, ("strategy", "seed", "key_space"))
    return PartitionSpec(
        strategy=_enum(
            data.get("strategy", "forward"),
            f"{path}.strategy",
            PartitionStrategy,
        ),
        seed=(
            _number(data["seed"], f"{path}.seed", integer=True)
            if data.get("seed") is not None
            else None
        ),
        key_space=_number(
            data.get("key_space", 1024),
            f"{path}.key_space",
            integer=True,
            minimum=1,
        ),
    )


def scenario_from_dict(data: Any) -> Scenario:
    """Parse and validate a scenario document.

    Raises :class:`ScenarioError` naming the offending field on any
    schema violation.
    """
    data = _mapping(data, "")
    _check_keys(
        data,
        "",
        (
            "version",
            "name",
            "description",
            "topology",
            "workload",
            "machine",
            "run",
            "channel",
            "pes",
            "partition",
        ),
    )
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ScenarioError(
            "version",
            f"unsupported scenario format version {version!r} "
            f"(expected {FORMAT_VERSION})",
        )
    if "name" not in data:
        raise ScenarioError("name", "scenario name is required")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError(
            "description",
            f"expected a string, got {description!r}",
        )
    return Scenario(
        name=_string(data["name"], "name"),
        description=description,
        topology=_topology_from_dict(data.get("topology", {}), "topology"),
        workload=_workload_from_dict(data.get("workload", {}), "workload"),
        machine=_machine_from_dict(data.get("machine", {}), "machine"),
        run=_run_from_dict(data.get("run", {}), "run"),
        channel=_channel_from_dict(data.get("channel", {}), "channel"),
        pes=_pes_from_dict(data.get("pes", []), "pes"),
        partition=_partition_from_dict(data.get("partition", {}), "partition"),
    )


# ----------------------------------------------------------------------
# to_dict (canonical, round-trips through scenario_from_dict)
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in fields(value)
        }
    return value


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """Serialize a scenario to a canonical JSON/YAML-ready dict.

    Every field is emitted explicitly (no default elision), so the
    document doubles as a full record of the effective configuration;
    ``scenario_from_dict(scenario_to_dict(s)) == s`` always holds.
    """
    data = _plain(scenario)
    data["version"] = FORMAT_VERSION
    # Emit edges as [src, dst] pairs (tuples already converted).
    return data
