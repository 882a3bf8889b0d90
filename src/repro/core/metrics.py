"""Throughput observation and trend classification.

The elastic controllers never act on raw throughput numbers; they act on
*trends* between consecutive observations, filtered by the sensitivity
threshold SENS (§3.1.1): "we must observe at least a 5% performance
difference before establishing a performance trend".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..sums import left_sum


class Trend(enum.Enum):
    """Direction of a throughput change between two observations."""

    UP = "up"
    DOWN = "down"
    FLAT = "flat"


def classify_trend(previous: float, current: float, sens: float) -> Trend:
    """Classify the change from ``previous`` to ``current``.

    A change smaller than ``sens`` (relative) in either direction is
    indistinguishable from system noise and classified FLAT.
    """
    if previous < 0 or current < 0:
        raise ValueError(
            "throughput observations must be non-negative, got "
            f"previous={previous!r}, current={current!r}"
        )
    if previous == 0.0:
        return Trend.UP if current > 0.0 else Trend.FLAT
    ratio = current / previous
    if ratio > 1.0 + sens:
        return Trend.UP
    if ratio < 1.0 - sens:
        return Trend.DOWN
    return Trend.FLAT


def significantly_better(
    candidate: float, reference: float, sens: float
) -> bool:
    """True when ``candidate`` beats ``reference`` by more than SENS."""
    return classify_trend(reference, candidate, sens) is Trend.UP


@dataclass
class ThroughputSensor:
    """Sliding record of observed throughput.

    Keeps the full history (cheap — one float per adaptation period) and
    exposes the aggregates the controllers need: the latest observation,
    the previous one, and a smoothed recent mean used as the "settled
    baseline" for workload-change detection (Fig. 13).
    """

    window: int = 8
    _history: List[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"throughput must be >= 0, got {value}")
        self._history.append(value)

    @property
    def latest(self) -> Optional[float]:
        return self._history[-1] if self._history else None

    @property
    def previous(self) -> Optional[float]:
        return self._history[-2] if len(self._history) >= 2 else None

    @property
    def count(self) -> int:
        return len(self._history)

    def recent_mean(self, n: Optional[int] = None) -> float:
        """Mean of the last ``n`` observations (default: the window)."""
        if not self._history:
            return 0.0
        n = n or self.window
        tail = self._history[-n:]
        return left_sum(tail) / len(tail)

    def trend(self, sens: float) -> Trend:
        """Trend between the last two observations."""
        if len(self._history) < 2:
            return Trend.FLAT
        return classify_trend(self._history[-2], self._history[-1], sens)

    def history(self) -> List[float]:
        return list(self._history)

    def reset(self) -> None:
        self._history.clear()
