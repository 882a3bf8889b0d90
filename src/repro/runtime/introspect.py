"""Introspection: human-readable reports of a PE's execution state.

The real product ships ``streamtool`` views of how operators map to
threads; this module provides the equivalent for the simulated PE — a
region table with per-region work, the binding throughput constraint
and a utilization estimate — for debugging elasticity decisions and for
the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..perfmodel.throughput import ThroughputEstimate
from ..sums import left_sum
from .pe import ProcessingElement


@dataclass(frozen=True)
class RegionReport:
    """One region's execution summary."""

    entry_name: str
    kind: str
    n_operators: int
    work_us_per_tuple: float
    share_of_bottleneck: float


@dataclass(frozen=True)
class PeReport:
    """Full configuration report for a PE."""

    graph_name: str
    machine_name: str
    scheduler_threads: int
    n_queues: int
    dynamic_ratio: float
    throughput: float
    limiting_factor: str
    regions: Tuple[RegionReport, ...]
    utilization: float

    def render(self, max_regions: int = 12) -> str:
        lines = [
            f"PE report: {self.graph_name} on {self.machine_name}",
            (
                f"  config     : {self.scheduler_threads} scheduler "
                f"threads, {self.n_queues} queues "
                f"({self.dynamic_ratio:.0%} dynamic)"
            ),
            (
                f"  throughput : {self.throughput:,.0f} tuples/s "
                f"(limited by {self.limiting_factor})"
            ),
            f"  utilization: {self.utilization:.0%} of busy capacity",
            (
                f"  regions ({len(self.regions)}, heaviest first, "
                f"top {min(max_regions, len(self.regions))}):"
            ),
        ]
        for r in self.regions[:max_regions]:
            bar = "#" * int(round(20 * r.share_of_bottleneck))
            lines.append(
                f"    {r.entry_name:<24s} {r.kind:<7s} "
                f"{r.n_operators:>4d} ops "
                f"{r.work_us_per_tuple:>9.2f} us/t |{bar:<20s}|"
            )
        if len(self.regions) > max_regions:
            lines.append(
                f"    ... {len(self.regions) - max_regions} more regions"
            )
        return "\n".join(lines)


def inspect(pe: ProcessingElement) -> PeReport:
    """Build a :class:`PeReport` for the PE's current configuration."""
    estimate: ThroughputEstimate = pe.estimate()
    graph = pe.graph
    works = sorted(estimate.region_work, key=lambda ew: -ew[1])
    max_work = works[0][1] if works and works[0][1] > 0 else 1.0
    decomp = pe.model.decomposition(pe.placement)
    source_entries = {r.entry for r in decomp.source_regions}
    members = decomp.operators_per_region()

    regions: List[RegionReport] = []
    for entry, work in works:
        regions.append(
            RegionReport(
                entry_name=graph.operator(entry).name,
                kind="source" if entry in source_entries else "dynamic",
                n_operators=len(members.get(entry, [])),
                work_us_per_tuple=work * 1e6,
                share_of_bottleneck=work / max_work,
            )
        )

    # Utilization: fraction of the active threads' capacity the current
    # throughput actually consumes.
    total_work = left_sum(w for _e, w in estimate.region_work)
    capacity = estimate.active_threads * estimate.thread_speed
    n_sources = max(1, len(graph.sources))
    demand = (estimate.throughput / n_sources) * total_work
    utilization = demand / capacity if capacity > 0 else 0.0

    return PeReport(
        graph_name=graph.name,
        machine_name=pe.machine.name,
        scheduler_threads=pe.scheduler_threads,
        n_queues=pe.n_queues,
        dynamic_ratio=pe.dynamic_ratio(),
        throughput=pe.true_throughput(),
        limiting_factor=estimate.limiting_factor,
        regions=tuple(regions),
        utilization=min(1.0, utilization),
    )
