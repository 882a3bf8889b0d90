"""Command-line interface: run experiments without writing Python.

Usage (after ``pip install -e .``)::

    python -m repro list                      # available experiments
    python -m repro run fig09 --machine xeon  # one figure, print table
    python -m repro run fig15a
    python -m repro elastic --operators 100 --payload 1024 --cores 16
    python -m repro sweep --operators 100 --payload 1024 --cores 88

``run`` executes a figure experiment from :mod:`repro.bench.figures`
and prints the paper-style table.  ``elastic`` runs one multi-level
adaptation on a pipeline and reports the converged configuration.
``sweep`` prints the Fig. 1-style static oracle sweep for a pipeline.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Dict, Optional, Sequence

from .bench import figures
from .bench.reporting import app_table, comparison_table, format_table

_FIGURES: Dict[str, str] = {
    "fig01": "Fig. 1 motivation sweep (100-op chain)",
    "fig06": "Fig. 6 adaptation-period optimizations",
    "fig09": "Fig. 9 pipeline graphs",
    "fig10": "Fig. 10 data-parallel graphs",
    "fig11": "Fig. 11 mixed graphs",
    "fig12": "Fig. 12 bushy graphs",
    "fig13": "Fig. 13 workload phase change",
    "fig15a": "Fig. 15(a) VWAP application",
    "fig15b": "Fig. 15(b) PacketAnalysis application",
}


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [[name, desc] for name, desc in sorted(_FIGURES.items())]
    print(format_table(["experiment", "description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    name = args.experiment
    if name not in _FIGURES:
        print(
            f"unknown experiment {name!r}; try: python -m repro list",
            file=sys.stderr,
        )
        return 2
    if name == "fig01":
        results = figures.fig01_motivation()
        rows = []
        for r in results:
            rows.append(
                [
                    f"{r.payload_bytes}B/{r.cores}c",
                    f"best frac {r.best_fraction:.2f}",
                    r.best_sweep_throughput,
                    f"auto {r.auto_fraction:.2f}",
                    r.auto_throughput,
                ]
            )
        print(
            format_table(
                ["config", "oracle", "oracle T/s", "auto", "auto T/s"],
                rows,
                title=_FIGURES[name],
            )
        )
    elif name == "fig06":
        results = figures.fig06_adaptation()
        print(
            format_table(
                ["variant", "settling s", "converged T/s", "thr", "q"],
                [
                    [
                        r.variant,
                        r.settling_time_s,
                        r.converged_throughput,
                        r.final_threads,
                        r.final_n_queues,
                    ]
                    for r in results
                ],
                title=_FIGURES[name],
            )
        )
    elif name == "fig09":
        comps = figures.fig09_pipeline(machine_name=args.machine)
        print(comparison_table(comps, title=_FIGURES[name]))
    elif name == "fig10":
        print(
            comparison_table(
                figures.fig10_data_parallel(machine_name=args.machine),
                title=_FIGURES[name],
            )
        )
    elif name == "fig11":
        print(
            comparison_table(
                figures.fig11_mixed(machine_name=args.machine),
                title=_FIGURES[name],
            )
        )
    elif name == "fig12":
        print(comparison_table(figures.fig12_bushy(), title=_FIGURES[name]))
    elif name == "fig13":
        r = figures.fig13_phase_change()
        print(
            format_table(
                ["metric", "before", "after"],
                [
                    ["threads", r.threads_before, r.threads_after],
                    ["queues", r.queues_before, r.queues_after],
                    [
                        "throughput",
                        r.throughput_before,
                        r.throughput_after,
                    ],
                    ["re-settle s", "-", r.re_settling_time_s],
                ],
                title=_FIGURES[name],
            )
        )
    elif name == "fig15a":
        print(app_table(figures.fig15a_vwap(), title=_FIGURES[name]))
    elif name == "fig15b":
        print(
            app_table(
                figures.fig15b_packet_analysis(), title=_FIGURES[name]
            )
        )
    return 0


def _machine(name: str, cores: Optional[int]):
    from .perfmodel import laptop, power8_184, xeon_176

    base = {
        "xeon": xeon_176,
        "power8": power8_184,
        "laptop": lambda: laptop(cores or 8),
    }[name]()
    if cores is not None and name != "laptop":
        base = base.with_cores(cores)
    return base


def _cmd_elastic(args: argparse.Namespace) -> int:
    from .graph import pipeline
    from .runtime import ProcessingElement, RuntimeConfig, run_elastic

    machine = _machine(args.machine, args.cores)
    graph = pipeline(
        args.operators,
        cost_flops=args.cost,
        payload_bytes=args.payload,
    )
    pe = ProcessingElement(
        graph,
        machine,
        RuntimeConfig(cores=machine.logical_cores, seed=args.seed),
    )
    manual = pe.true_throughput()
    result = run_elastic(pe, duration_s=args.duration)
    print(
        format_table(
            ["quantity", "value"],
            [
                ["manual throughput T/s", manual],
                ["converged throughput T/s", result.converged_throughput],
                ["speedup", result.converged_throughput / manual],
                ["scheduler threads", result.final_threads],
                ["scheduler queues", result.final_n_queues],
                ["dynamic ratio", result.final_dynamic_ratio],
                ["last change at s", result.trace.last_change_time()],
            ],
            title=(
                f"multi-level elasticity on pipeline({args.operators}), "
                f"{args.payload}B, {machine.name}"
            ),
        )
    )
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from .bench.harness import oracle_sweep
    from .graph import pipeline
    from .perfmodel import PerformanceModel
    from .perfmodel.latency import estimate_latency
    from .runtime import QueuePlacement

    machine = _machine(args.machine, args.cores)
    graph = pipeline(
        args.operators,
        cost_flops=args.cost,
        payload_bytes=args.payload,
    )
    model = PerformanceModel(graph, machine)
    rows = []
    for fraction in (0.0, 0.1, 0.3, 1.0):
        (_f, threads, _t) = oracle_sweep(
            graph, machine, fractions=(fraction,)
        )[0]
        eligible = [op.index for op in graph if not op.is_source]
        k = int(round(fraction * len(eligible)))
        placement = (
            QueuePlacement.of(
                eligible[int(i * len(eligible) / k)] for i in range(k)
            )
            if k
            else QueuePlacement.empty()
        )
        capacity = model.estimate(placement, threads).throughput
        light = estimate_latency(model, placement, threads, 0.2)
        loaded = estimate_latency(model, placement, threads, 0.9)
        rows.append(
            [
                f"{fraction:.0%} dynamic",
                capacity,
                light.latency_ms,
                loaded.latency_ms,
            ]
        )
    print(
        format_table(
            [
                "configuration",
                "capacity T/s",
                "latency ms @20%",
                "latency ms @90%",
            ],
            rows,
            title=(
                f"latency profile: pipeline({args.operators}), "
                f"{args.payload}B, {machine.name}"
            ),
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .bench.harness import oracle_sweep
    from .graph import pipeline

    machine = _machine(args.machine, args.cores)
    graph = pipeline(
        args.operators,
        cost_flops=args.cost,
        payload_bytes=args.payload,
    )
    fractions = [i / 10 for i in range(11)]
    rows = oracle_sweep(graph, machine, fractions)
    print(
        format_table(
            ["fraction dynamic", "best threads", "throughput T/s"],
            rows,
            title=(
                f"static sweep: pipeline({args.operators}), "
                f"{args.payload}B, {machine.name}"
            ),
        )
    )
    return 0


def _positive(cast: Callable[[str], float]) -> Callable[[str], float]:
    """Argparse type: a finite number > 0, else a usage error (exit 2)."""

    def parse(text: str) -> float:
        value = cast(text)  # ValueError: argparse says "invalid int value"
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value

    parse.__name__ = cast.__name__
    return parse


positive_int = _positive(int)
positive_float = _positive(float)


def writable_file(text: str) -> str:
    """Argparse type: a file path that can be created or overwritten.

    Checked at parse time, so a bad ``--output`` is a usage error
    (exit 2) before any simulation runs rather than a traceback after.
    """
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory: {text!r}")
    parent = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"directory does not exist: {parent!r}"
        )
    target = text if os.path.exists(text) else parent
    if not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"not writable: {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Automating Multi-level Performance "
            "Elastic Components for IBM Streams' (Middleware '19)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    scenarios = sub.add_parser(
        "scenarios", help="inspect and validate the scenario zoo"
    )
    ssub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    slist = ssub.add_parser("list", help="list the scenario zoo")
    slist.add_argument(
        "--dir", default=None, help="scenario directory (default: zoo)"
    )
    svalidate = ssub.add_parser(
        "validate",
        help="validate scenario config files (schema + round-trip)",
    )
    svalidate.add_argument(
        "path", nargs="+", help="scenario file path or zoo name"
    )
    svalidate.add_argument(
        "--dir", default=None, help="scenario directory (default: zoo)"
    )

    bench = sub.add_parser(
        "bench", help="run a named scenario from the zoo"
    )
    bench.add_argument(
        "--scenario", required=True, help="scenario name or file path"
    )
    bench.add_argument(
        "--backend",
        default=None,
        choices=["des", "perfmodel", "both"],
        help="override the scenario's declared backend",
    )
    bench.add_argument(
        "--dir", default=None, help="scenario directory (default: zoo)"
    )
    bench.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        metavar="N",
        help=(
            "maximum worker-pool width for multi-PE scenarios, which "
            "never exceeds the widest wave of concurrently runnable PEs "
            "(1 forces the sequential path; default: the scenario's "
            "run.jobs, then REPRO_JOB_WORKERS, then 1)"
        ),
    )
    bench.add_argument(
        "--warm-start",
        default=None,
        choices=["off", "model", "history", "auto"],
        help=(
            "coordinator warm-start policy: 'model' seeds from the "
            "analytical performance model, 'history' from the "
            "persistent phase store (REPRO_MEMO_DIR), 'auto' tries "
            "history then model (default: the scenario's "
            "run.warm_start, then REPRO_WARM_START, then off)"
        ),
    )

    run = sub.add_parser("run", help="run a figure experiment")
    run.add_argument("experiment", help="e.g. fig09, fig15a")
    run.add_argument(
        "--machine", default="xeon", choices=["xeon", "power8"]
    )

    trace = sub.add_parser(
        "trace",
        help="replay an experiment and export its decision trace",
    )
    from .obs.trace_cli import add_trace_arguments

    add_trace_arguments(trace)

    for cmd, helptext in [
        ("elastic", "run multi-level elasticity on a pipeline"),
        ("sweep", "static oracle sweep over the dynamic fraction"),
        ("latency", "latency profile across configurations"),
    ]:
        p = sub.add_parser(cmd, help=helptext)
        p.add_argument("--operators", type=positive_int, default=100)
        p.add_argument("--payload", type=positive_int, default=1024)
        p.add_argument("--cost", type=positive_float, default=100.0)
        p.add_argument(
            "--machine",
            default="xeon",
            choices=["xeon", "power8", "laptop"],
        )
        p.add_argument("--cores", type=positive_int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--duration", type=positive_float, default=10_000.0)
    return parser


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.trace_cli import run_trace

    return run_trace(args)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import cli as scenario_cli

    if args.scenarios_command == "list":
        return scenario_cli.cmd_list(args)
    return scenario_cli.cmd_validate(args)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .scenarios import cli as scenario_cli

    return scenario_cli.cmd_bench(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers: Dict[str, Callable[[argparse.Namespace], int]] = {
        "list": _cmd_list,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "elastic": _cmd_elastic,
        "sweep": _cmd_sweep,
        "latency": _cmd_latency,
        "scenarios": _cmd_scenarios,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
