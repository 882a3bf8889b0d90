"""Scheduler-queue placement: which operators run under dynamic threading.

A *placement* is the set of operator indices that have a scheduler queue
in front of them.  Operators in the placement use the **dynamic**
threading model; everything else is **manual** (executed by the upstream
thread via function calls).  The placement is the object the threading
model elasticity component mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Iterable, Iterator, Tuple

from ..graph.model import StreamGraph


class PlacementError(ValueError):
    """Raised when a queue placement violates runtime invariants."""


@dataclass(frozen=True)
class QueuePlacement:
    """Immutable set of operators executing under the dynamic model.

    Invariants (checked against a graph with :meth:`validate`):

    - sources never carry a scheduler queue (they are driven by their own
      operator threads),
    - all indices refer to operators present in the graph.
    """

    queued: FrozenSet[int] = frozenset()

    @staticmethod
    def empty() -> "QueuePlacement":
        """All-manual placement — the algorithm's starting condition."""
        return QueuePlacement(frozenset())

    @staticmethod
    def full(graph: StreamGraph) -> "QueuePlacement":
        """Every non-source operator queued — pure dynamic threading."""
        return QueuePlacement(graph.queueable)

    @staticmethod
    def of(indices: Iterable[int]) -> "QueuePlacement":
        return QueuePlacement(frozenset(indices))

    def validate(self, graph: StreamGraph) -> None:
        queued = self.queued
        if queued <= graph.queueable:
            return
        n = len(graph)
        for idx in queued:
            if not 0 <= idx < n:
                raise PlacementError(
                    f"placement references unknown operator {idx}"
                )
        for op in graph.sources:
            if op.index in queued:
                raise PlacementError(
                    f"source operator {op.name} "
                    "cannot have a scheduler queue"
                )

    # ------------------------------------------------------------------
    # set algebra (all return new placements)
    # ------------------------------------------------------------------
    def add(self, indices: Iterable[int]) -> "QueuePlacement":
        return QueuePlacement(self.queued | frozenset(indices))

    def remove(self, indices: Iterable[int]) -> "QueuePlacement":
        return QueuePlacement(self.queued - frozenset(indices))

    def __contains__(self, idx: int) -> bool:
        return idx in self.queued

    def __len__(self) -> int:
        return len(self.queued)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.queued))

    @property
    def n_queues(self) -> int:
        """Number of scheduler queues in the PE (one per queued operator)."""
        return len(self.queued)

    def dynamic_ratio(self, graph: StreamGraph) -> float:
        """Fraction of queueable operators under the dynamic model.

        This is the shaded-bar quantity in the paper's Figures 9-12
        ("ratio of the operators using dynamic threading model").
        """
        eligible = graph.queueable
        if not eligible:
            return 0.0
        return len(self.queued & eligible) / len(eligible)

    def intersection(self, indices: AbstractSet[int]) -> Tuple[int, ...]:
        return tuple(sorted(self.queued & frozenset(indices)))

    def __repr__(self) -> str:
        preview = sorted(self.queued)[:8]
        suffix = "..." if len(self.queued) > 8 else ""
        return f"QueuePlacement({len(self.queued)} queues: {preview}{suffix})"
