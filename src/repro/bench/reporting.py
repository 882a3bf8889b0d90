"""ASCII reporting: render experiment results as the paper's tables.

The benchmark harness prints one table per figure with the same rows
and series the paper reports (speedups over manual, ratio of operators
under the dynamic model, thread counts), so EXPERIMENTS.md can record
paper-vs-measured side by side.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .harness import Comparison


def throughput_rates(
    sink_tuples: float,
    measure_s: float,
    wall_s: float,
    cores: int = 1,
) -> Dict[str, float]:
    """Disambiguate the two normalizations of a sink-throughput number.

    A DES measurement has two clocks: the *simulated* clock (how fast
    the modeled system moves tuples) and the *wall* clock (how fast
    the simulator itself runs).  ``sink_tuples_per_s_sim`` is the
    quantity the paper's figures report; ``sink_tuples_per_s_wall`` is
    simulator performance, the number batching improves.
    ``BENCH_des.json`` carries both, explicitly suffixed, so neither is
    mistaken for the other.
    """
    if measure_s <= 0 or wall_s <= 0 or cores < 1:
        raise ValueError(
            "measure_s and wall_s must be positive, cores >= 1"
        )
    per_wall = sink_tuples / wall_s
    return {
        "sink_tuples": round(float(sink_tuples), 1),
        "sink_tuples_per_s_sim": round(sink_tuples / measure_s, 1),
        "sink_tuples_per_s_wall": round(per_wall, 1),
        "sink_tuples_per_s_wall_per_core": round(per_wall / cores, 1),
    }


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a padded ASCII table."""
    str_rows: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(
            " | ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)


COMPARISON_HEADERS = [
    "workload",
    "manual T/s",
    "dynamic T/s",
    "multi T/s",
    "dyn x",
    "multi x",
    "multi/dyn",
    "dyn ratio",
    "threads",
]


def comparison_row(c: Comparison) -> List[object]:
    """One table row for a :class:`Comparison` (paper Figs. 9-12)."""
    return [
        c.workload,
        c.manual.throughput,
        c.dynamic.throughput,
        c.multi_level.throughput,
        c.dynamic_speedup,
        c.multi_level_speedup,
        c.multi_over_dynamic,
        c.multi_level.dynamic_ratio,
        c.multi_level.threads,
    ]


def comparison_table(
    comparisons: Sequence[Comparison], title: Optional[str] = None
) -> str:
    return format_table(
        COMPARISON_HEADERS,
        [comparison_row(c) for c in comparisons],
        title=title,
    )


APP_HEADERS = [
    "workload",
    "manual T/s",
    "hand T/s",
    "dynamic T/s",
    "multi T/s",
    "multi/hand",
    "hand thr",
    "multi thr",
]


def app_row(c: Comparison) -> List[object]:
    """Application table row (paper Fig. 15, includes hand-optimized)."""
    hand = c.hand_optimized
    hand_throughput = hand.throughput if hand else float("nan")
    hand_threads = hand.threads if hand else 0
    ratio = (
        c.multi_level.throughput / hand_throughput
        if hand and hand_throughput > 0
        else float("nan")
    )
    return [
        c.workload,
        c.manual.throughput,
        hand_throughput,
        c.dynamic.throughput,
        c.multi_level.throughput,
        ratio,
        hand_threads,
        c.multi_level.threads,
    ]


def app_table(
    comparisons: Sequence[Comparison], title: Optional[str] = None
) -> str:
    return format_table(
        APP_HEADERS, [app_row(c) for c in comparisons], title=title
    )
