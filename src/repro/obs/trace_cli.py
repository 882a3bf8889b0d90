"""``python -m repro trace <experiment>`` — replay a run, dump its log.

Replays one *representative* elastic run of a figure experiment with
an :class:`~repro.obs.hub.ObservabilityHub` attached and exports the
resulting decision log (and, for the ``prom`` format, the metrics
registry).  Where a figure sweeps a parameter grid, the trace command
picks the grid point the paper discusses in the text; the goal is an
auditable causal log of one adaptation run, not the full table.

Heavy imports (graph builders, the bench layer) are deferred into the
experiment builders so that importing :mod:`repro.obs` stays cheap.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, IO, List, Optional, Tuple

from .exporters import (
    format_log_table,
    prometheus_text,
    write_csv,
    write_jsonl,
)
from .hub import ObservabilityHub

FORMATS = ("table", "jsonl", "csv", "prom")


@dataclass(frozen=True)
class TraceRun:
    """Everything needed to replay one elastic run under observation."""

    pe: object  # ProcessingElement
    duration_s: float
    workload_events: Optional[List[Tuple[float, object]]] = None
    stop_after_stable_periods: Optional[int] = 24


def _machine(name: str, cores: Optional[int]):
    from ..perfmodel import power8_184, xeon_176

    machine = {"xeon": xeon_176, "power8": power8_184}[name]()
    if cores is not None:
        machine = machine.with_cores(cores)
    return machine


def _pe(graph, machine, seed: int, elasticity=None):
    from ..runtime.config import ElasticityConfig, RuntimeConfig
    from ..runtime.pe import ProcessingElement

    config = RuntimeConfig(
        cores=machine.logical_cores,
        seed=seed,
        elasticity=elasticity or ElasticityConfig(),
    )
    return ProcessingElement(graph, machine, config)


# ----------------------------------------------------------------------
# experiment builders (one representative run each)
# ----------------------------------------------------------------------
def _build_fig01(args) -> TraceRun:
    from ..graph.topologies import pipeline

    graph = pipeline(100, cost_flops=100.0, payload_bytes=1024)
    machine = _machine(args.machine, args.cores or 16)
    return TraceRun(pe=_pe(graph, machine, args.seed), duration_s=20_000.0)


def _build_fig06(args) -> TraceRun:
    # The Fig. 6 text discusses the history + SF=0.6 variant, which is
    # the library's default ElasticityConfig.
    import numpy as np

    from ..graph.cost import assign_costs, skewed
    from ..graph.topologies import pipeline

    graph = assign_costs(
        pipeline(500, payload_bytes=1024),
        skewed(),
        rng=np.random.default_rng(args.seed),
    )
    machine = _machine(args.machine, args.cores or 88)
    return TraceRun(pe=_pe(graph, machine, args.seed), duration_s=20_000.0)


def _build_fig09(args) -> TraceRun:
    import numpy as np

    from ..graph.cost import assign_costs, balanced
    from ..graph.topologies import pipeline

    graph = assign_costs(
        pipeline(500, payload_bytes=1024),
        balanced(100.0),
        rng=np.random.default_rng(args.seed),
    )
    machine = _machine(args.machine, args.cores)
    return TraceRun(pe=_pe(graph, machine, args.seed), duration_s=20_000.0)


def _build_fig10(args) -> TraceRun:
    from ..graph.topologies import data_parallel

    graph = data_parallel(100, cost_flops=100.0, payload_bytes=1024)
    machine = _machine(args.machine, args.cores)
    return TraceRun(pe=_pe(graph, machine, args.seed), duration_s=20_000.0)


def _build_fig11(args) -> TraceRun:
    from ..graph.topologies import mixed

    graph = mixed(10, 50, cost_flops=100.0, payload_bytes=1024)
    machine = _machine(args.machine, args.cores)
    return TraceRun(pe=_pe(graph, machine, args.seed), duration_s=20_000.0)


def _build_fig12(args) -> TraceRun:
    from ..graph.topologies import bushy_82

    graph = bushy_82(cost_flops=100.0, payload_bytes=1024)
    machine = _machine(args.machine, args.cores or 88)
    return TraceRun(pe=_pe(graph, machine, args.seed), duration_s=20_000.0)


def _build_fig13(args) -> TraceRun:
    from ..apps.workloads import phase_change

    workload = phase_change(
        n_operators=100, payload_bytes=1024, seed=args.seed
    )
    machine = _machine(args.machine, args.cores or 88)
    return TraceRun(
        pe=_pe(workload.initial, machine, args.seed),
        duration_s=4_000.0,
        workload_events=workload.events(),
        # A workload-change run must keep monitoring through the whole
        # duration; stopping at the first stable stretch would miss the
        # phase change.
        stop_after_stable_periods=None,
    )


def _build_fig15a(args) -> TraceRun:
    from ..apps.vwap import build_vwap

    graph = build_vwap()
    machine = _machine(args.machine, args.cores or 16)
    return TraceRun(pe=_pe(graph, machine, args.seed), duration_s=20_000.0)


def _build_fig15b(args) -> TraceRun:
    from ..apps.packet_analysis import build_packet_analysis

    graph = build_packet_analysis(1)
    machine = _machine(args.machine, args.cores)
    return TraceRun(pe=_pe(graph, machine, args.seed), duration_s=20_000.0)


EXPERIMENTS: Dict[str, Tuple[str, Callable]] = {
    "fig01": ("Fig. 1 motivation pipeline (100 ops, 1024B)", _build_fig01),
    "fig06": ("Fig. 6 adaptation run (history + SF=0.6)", _build_fig06),
    "fig09": ("Fig. 9 pipeline (500 ops, 1024B)", _build_fig09),
    "fig10": ("Fig. 10 data-parallel (width 100)", _build_fig10),
    "fig11": ("Fig. 11 mixed (10 x 50)", _build_fig11),
    "fig12": ("Fig. 12 bushy-82", _build_fig12),
    "fig13": ("Fig. 13 workload phase change", _build_fig13),
    "fig15a": ("Fig. 15(a) VWAP", _build_fig15a),
    "fig15b": ("Fig. 15(b) PacketAnalysis (1 source)", _build_fig15b),
}


# ----------------------------------------------------------------------
# command implementation
# ----------------------------------------------------------------------
def replay(experiment: str, args: argparse.Namespace) -> ObservabilityHub:
    """Run the experiment's representative trace run under a fresh hub."""
    from ..runtime.executor import AdaptationExecutor

    _desc, build = EXPERIMENTS[experiment]
    spec = build(args)
    hub = ObservabilityHub()
    executor = AdaptationExecutor(
        spec.pe, workload_events=spec.workload_events, obs=hub
    )
    duration = (
        args.duration if args.duration is not None else spec.duration_s
    )
    executor.run(
        duration,
        stop_after_stable_periods=spec.stop_after_stable_periods,
    )
    return hub


def export(hub: ObservabilityHub, fmt: str, stream: IO[str]) -> None:
    records = hub.records()
    if fmt == "jsonl":
        write_jsonl(records, stream)
    elif fmt == "csv":
        write_csv(records, stream)
    elif fmt == "prom":
        stream.write(prometheus_text(hub.registry))
    elif fmt == "table":
        stream.write(format_log_table(records) + "\n")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown format {fmt!r}")


def run_trace(args: argparse.Namespace) -> int:
    name = args.experiment
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        print(
            f"unknown experiment {name!r}; known: {known}",
            file=sys.stderr,
        )
        return 2
    hub = replay(name, args)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            export(hub, args.format, fh)
        decisions = len(hub.decisions())
        print(
            f"wrote {decisions} decisions "
            f"({len(hub.records())} records) to {args.output}",
            file=sys.stderr,
        )
    else:
        export(hub, args.format, sys.stdout)
    return 0


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the ``trace`` subcommand's arguments on ``parser``."""
    from ..cli import positive_float, positive_int, writable_file

    parser.add_argument(
        "experiment",
        help="experiment to replay, e.g. fig06 (see: python -m repro list)",
    )
    parser.add_argument(
        "--format",
        default="table",
        choices=FORMATS,
        help="output format (default: table)",
    )
    parser.add_argument(
        "--output",
        type=writable_file,
        default=None,
        help="write to this file instead of stdout",
    )
    parser.add_argument(
        "--machine", default="xeon", choices=["xeon", "power8"]
    )
    parser.add_argument(
        "--cores",
        type=positive_int,
        default=None,
        help="override the machine's logical core count",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--duration",
        type=positive_float,
        default=None,
        help="virtual seconds to run (default: experiment-specific)",
    )
