"""Trace events recorded by the adaptation executor.

Every adaptation period emits an :class:`Observation`; configuration
changes emit :class:`ThreadCountChange` / :class:`PlacementChange`.
The trace is the raw material for the Fig. 6 / Fig. 13 timelines and
for the SASO property analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..sums import left_sum


@dataclass(frozen=True)
class Observation:
    """One adaptation period's measurement."""

    time_s: float
    throughput: float
    true_throughput: float
    threads: int
    n_queues: int
    mode: str


@dataclass(frozen=True)
class ThreadCountChange:
    time_s: float
    old_threads: int
    new_threads: int


@dataclass(frozen=True)
class PlacementChange:
    time_s: float
    old_n_queues: int
    new_n_queues: int


@dataclass
class AdaptationTrace:
    """Complete record of one elastic run."""

    observations: List[Observation]
    thread_changes: List[ThreadCountChange]
    placement_changes: List[PlacementChange]

    @staticmethod
    def empty() -> "AdaptationTrace":
        return AdaptationTrace([], [], [])

    # ------------------------------------------------------------------
    @property
    def duration_s(self) -> float:
        return self.observations[-1].time_s if self.observations else 0.0

    def final_throughput(self, window: int = 8) -> float:
        """Mean throughput over the last ``window`` observations."""
        if not self.observations:
            return 0.0
        tail = self.observations[-window:]
        return left_sum(o.true_throughput for o in tail) / len(tail)

    def final_threads(self) -> int:
        return self.observations[-1].threads if self.observations else 0

    def final_n_queues(self) -> int:
        return self.observations[-1].n_queues if self.observations else 0

    def last_change_time(self) -> float:
        """Time of the last configuration change (settling time proxy)."""
        times = [c.time_s for c in self.thread_changes]
        times += [c.time_s for c in self.placement_changes]
        return max(times) if times else 0.0

    def settling_time(self, tolerance: float = 0.05) -> float:
        """Adaptation period length: when throughput last left the
        ``tolerance`` band around the final converged throughput.

        This matches how the paper reads Fig. 6 ("stabilizes after 1000
        seconds"): the trace is converged once throughput stays within
        the band for the remainder of the run.
        """
        final = self.final_throughput()
        if final == 0.0:
            return self.duration_s
        settled_at = 0.0
        for obs in self.observations:
            if abs(obs.true_throughput / final - 1.0) > tolerance:
                settled_at = obs.time_s
        return settled_at

    def throughput_series(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(
            (o.time_s, o.true_throughput) for o in self.observations
        )

    def queue_series(self) -> Tuple[Tuple[float, int], ...]:
        return tuple((o.time_s, o.n_queues) for o in self.observations)

    def thread_series(self) -> Tuple[Tuple[float, int], ...]:
        return tuple((o.time_s, o.threads) for o in self.observations)

    def max_threads_used(self) -> int:
        return max((o.threads for o in self.observations), default=0)
