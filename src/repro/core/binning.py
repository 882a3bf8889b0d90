"""Logarithmic binning of operators into profiling groups (observation O2).

"We perform logarithmic binning by dividing operators into profiling
groups. Rather than testing the threading model choice with each
individual operator, we now set the granularity of adjustment at the
level of this group of operators."

Operators whose cost metrics fall within the same order of magnitude
(configurable ``base``) form one group; groups are ordered by descending
cost so the elasticity algorithm can "start from the group with the
highest relative cost".  Only queueable operators (non-sources) are
binned — sources can never carry a scheduler queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..graph.analysis import queueable_indices
from ..graph.model import StreamGraph
from ..sums import left_sum
from .profiler import CostProfile


@dataclass(frozen=True)
class ProfilingGroup:
    """A set of operators with similar cost metric.

    ``representative_metric`` is the mean metric of the members, used
    for ordering and reporting.  Members are stored sorted for
    determinism; the *selection order* (which members get queues first)
    is decided separately by the elasticity component.
    """

    members: Tuple[int, ...]
    representative_metric: float

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, idx: int) -> bool:
        return idx in self.members


def build_groups(
    graph: StreamGraph,
    profile: CostProfile,
    base: float = 10.0,
    boundary_tol: float = 1e-9,
) -> List[ProfilingGroup]:
    """Bin queueable operators into groups by log(cost metric).

    Returns groups ordered by *descending* representative cost.  Zero
    metric operators (never caught by the profiler — the cheapest ones)
    form the final, lightest group.

    Bins are *relative to the largest observed metric*: operators whose
    metric lies within one factor of ``base`` of the maximum form the
    heaviest group, the next factor the second group, and so on.  This
    makes grouping invariant to the number of profiler samples (the
    absolute counter values scale with the profiling period, their
    ratios do not).

    ``boundary_tol`` stabilizes metrics sitting on (or within the
    tolerance of) a bin boundary: when ``log(max/metric, base)`` lands
    within ``boundary_tol`` of an integer it snaps *to* that integer
    before flooring.  ``log()`` of an exact power-of-``base`` ratio can
    come out an ulp above or below the integer depending on how the
    metric was accumulated (analytic weight vs. snapshot counter), and
    without the snap the same operator would flip groups between
    profiling mechanisms.  Callers comparing profiles with sampling
    noise (snapshot counts differing by a few samples) can widen the
    tolerance so near-boundary operators bin identically.
    """
    if base <= 1.0:
        raise ValueError(f"log base must be > 1, got {base}")
    if boundary_tol < 0.0:
        raise ValueError(
            f"boundary_tol must be >= 0, got {boundary_tol}"
        )
    metrics = profile.as_dict()
    eligible = queueable_indices(graph)

    max_metric = max(
        (metrics.get(idx, 0) for idx in eligible), default=0
    )
    bins: Dict[int, List[int]] = {}
    zeros: List[int] = []
    for idx in eligible:
        metric = metrics.get(idx, 0)
        if metric <= 0:
            zeros.append(idx)
            continue
        # bin 0 holds metrics within one factor of `base` of the max,
        # bin 1 the next factor down, etc.  Snap to the nearest integer
        # within the tolerance first, so an exact power-of-base ratio
        # bins identically regardless of fp rounding in log().
        raw = math.log(max_metric / metric, base)
        nearest = round(raw)
        if abs(raw - nearest) <= boundary_tol:
            bin_key = int(nearest)
        else:
            bin_key = int(math.floor(raw))
        bins.setdefault(bin_key, []).append(idx)

    groups: List[ProfilingGroup] = []
    for bin_key in sorted(bins):
        members = tuple(sorted(bins[bin_key]))
        mean_metric = (
            left_sum(metrics.get(i, 0) for i in members) / len(members)
        )
        groups.append(
            ProfilingGroup(
                members=members, representative_metric=mean_metric
            )
        )
    if zeros:
        groups.append(
            ProfilingGroup(
                members=tuple(sorted(zeros)), representative_metric=0.0
            )
        )
    return groups


def validate_groups(
    graph: StreamGraph, groups: Sequence[ProfilingGroup]
) -> None:
    """Check the group list partitions the queueable operators.

    Raises ``ValueError`` on overlap or omission; used in tests and as a
    debug assertion in the coordinator.
    """
    seen: Dict[int, int] = {}
    for gi, group in enumerate(groups):
        for idx in group.members:
            if idx in seen:
                raise ValueError(
                    f"operator {idx} appears in groups {seen[idx]} and {gi}"
                )
            seen[idx] = gi
    expected = set(queueable_indices(graph))
    actual = set(seen)
    if expected != actual:
        missing = sorted(expected - actual)[:5]
        extra = sorted(actual - expected)[:5]
        raise ValueError(
            f"groups do not partition queueable operators; "
            f"missing={missing} extra={extra}"
        )
