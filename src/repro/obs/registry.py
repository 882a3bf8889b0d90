"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the quantitative half of the observability subsystem
(:mod:`repro.obs`): controllers, the adaptation executor and the DES
engine increment pre-bound metric objects on their hot paths.  Two
properties keep it cheap enough for the tuple path:

- **bind once, update forever** — callers resolve a metric object a
  single time (at construction) and afterwards pay one attribute
  update per event, never a registry lookup;
- **null objects** — when no registry is attached, callers hold the
  shared :data:`NULL_COUNTER` / :data:`NULL_GAUGE` /
  :data:`NULL_HISTOGRAM` singletons whose update methods are empty.
  Detached instrumentation is a single no-op method call, which keeps
  benchmark numbers unaffected.

Histograms use *fixed* upper bounds chosen at creation (Prometheus
``le`` semantics: a value lands in the first bucket whose bound is
``>= value``; values above the last bound land in the implicit
``+Inf`` bucket).  Fixed buckets make observation O(log #buckets) with
no allocation, and make the exported cumulative counts stable across
runs.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

# Default bounds cover event counts and throughputs across the scales
# the experiments produce (tuples/s span ~1e2..1e7).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "description", "_value")

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def state(self) -> float:
        """Picklable internal state (see ``MetricsRegistry.export_state``)."""
        return self._value

    def load_state(self, state: float) -> None:
        """Overwrite the value with a state exported elsewhere.

        Unlike :meth:`inc` this may move the value in any direction:
        it re-homes a metric owned by exactly one remote writer (a
        pool worker), it does not accumulate concurrent writers.
        """
        self._value = float(state)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "value": self._value,
        }


class Gauge:
    """Value that can go up and down (e.g. current thread count)."""

    __slots__ = ("name", "description", "_value")

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def state(self) -> float:
        return self._value

    def load_state(self, state: float) -> None:
        self._value = float(state)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "value": self._value,
        }


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics."""

    __slots__ = ("name", "description", "bounds", "_counts", "_sum", "_n")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} bounds must be strictly increasing: "
                f"{bounds}"
            )
        self.name = name
        self.description = description
        self.bounds = bounds
        # One slot per finite bound plus the +Inf overflow bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._n = 0

    def observe(self, value: float) -> None:
        self._counts[bisect.bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._n += 1

    @property
    def count(self) -> int:
        return self._n

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def counts(self) -> Tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; last entry is +Inf."""
        return tuple(self._counts)

    def state(self) -> Tuple[Tuple[int, ...], float, int]:
        return (tuple(self._counts), self._sum, self._n)

    def load_state(self, state: Tuple[Tuple[int, ...], float, int]) -> None:
        counts, total, n = state
        if len(counts) != len(self._counts):
            raise ValueError(
                f"histogram {self.name!r} state has {len(counts)} "
                f"buckets, expected {len(self._counts)}"
            )
        self._counts = list(counts)
        self._sum = float(total)
        self._n = int(n)

    def cumulative(self) -> Tuple[Tuple[float, int], ...]:
        """Prometheus-style cumulative ``(le_bound, count)`` pairs."""
        out = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self._counts[-1]))
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._n,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    Re-requesting an existing name returns the same object; requesting
    it as a different metric kind (or a histogram with different
    bounds) is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not histogram"
                )
            if existing.bounds != tuple(float(b) for b in bounds):
                raise ValueError(
                    f"histogram {name!r} re-registered with different "
                    f"bounds ({existing.bounds} != {tuple(bounds)})"
                )
            return existing
        metric = Histogram(name, bounds=bounds, description=description)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls, name: str, description: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, description=description)
        self._metrics[name] = metric
        return metric

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[Metric]:
        return iter(
            self._metrics[name] for name in sorted(self._metrics)
        )

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, dict]:
        """JSON-serializable dump of every metric, sorted by name."""
        return {m.name: m.to_dict() for m in self}

    # ------------------------------------------------------------------
    # cross-process state transfer (sticky pool workers)
    # ------------------------------------------------------------------
    def export_state(self, prefix: str = "") -> Dict[str, dict]:
        """Picklable per-metric state for every metric under ``prefix``.

        Each entry carries enough to *re-create* the metric in another
        registry (kind, description, histogram bounds) plus its current
        :meth:`~Counter.state`, so a pool worker's scoped metrics can
        be re-homed into the parent hub with :meth:`merge_state`.
        """
        out: Dict[str, dict] = {}
        for metric in self:
            if prefix and not metric.name.startswith(prefix):
                continue
            entry = {
                "kind": metric.kind,
                "description": metric.description,
                "state": metric.state(),
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = metric.bounds
            out[metric.name] = entry
        return out

    def merge_state(self, exported: Dict[str, dict]) -> None:
        """Install exported metric states, creating metrics as needed.

        Overwrites each named metric's state with the exported one —
        single-writer semantics: every exported name must have exactly
        one remote owner (the job executor's ``pe.<name>.`` scoping
        guarantees this).
        """
        for name in sorted(exported):
            entry = exported[name]
            kind = entry["kind"]
            if kind == "counter":
                metric = self.counter(name, entry["description"])
            elif kind == "gauge":
                metric = self.gauge(name, entry["description"])
            elif kind == "histogram":
                metric = self.histogram(
                    name,
                    bounds=entry["bounds"],
                    description=entry["description"],
                )
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown metric kind {kind!r}")
            metric.load_state(entry["state"])


# ----------------------------------------------------------------------
# null objects: detached instrumentation is one empty method call
# ----------------------------------------------------------------------
class NullCounter:
    __slots__ = ()

    kind = "counter"
    name = "<null>"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    __slots__ = ()

    kind = "gauge"
    name = "<null>"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class NullHistogram:
    __slots__ = ()

    kind = "histogram"
    name = "<null>"
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry stand-in handed out by the null hub: creates nothing."""

    def counter(self, name: str, description: str = "") -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, description: str = "") -> NullGauge:
        return NULL_GAUGE

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> NullHistogram:
        return NULL_HISTOGRAM

    def get(self, name: str) -> None:
        return None

    def __iter__(self) -> Iterator[Metric]:
        return iter(())

    def snapshot(self) -> Dict[str, dict]:
        return {}


NULL_REGISTRY = NullRegistry()
