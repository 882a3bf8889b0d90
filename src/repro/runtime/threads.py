"""Thread bookkeeping: the per-thread state variable of §3.

The paper's operator cost metric works by "registering a runtime level
per-thread state variable for each thread in the system, which is set to
the corresponding operator index when threads enter the processing logic
of that operator"; a profiler thread periodically snapshots all threads
and counts which operators they were caught in.

:class:`ThreadRegistry` is that mechanism: execution substrates (the DES
engine) publish each thread's current operator through it, and
:class:`SnapshotProfiler` turns periodic snapshots into the same
:class:`~repro.core.profiler.CostProfile` the analytical profiler
produces — so the binning/elasticity stack runs unchanged on metrics
gathered from *actual execution* rather than from the cost model.

Sampled accounting
------------------
Fine-grained publication (one :meth:`ThreadRegistry.set_current` per
operator entry) forces the execution substrate to advance time once per
operator, which defeats the DES engine's coalesced fast path.  The
registry therefore also supports **interval publication**: a thread
executing a merged time advance registers the advance's analytic
composition — a repeating cycle of ``(operator, duration)`` segments —
via :meth:`ThreadRegistry.set_interval`.  A snapshot taken at simulated
time ``now`` inside the interval resolves the operator *positionally*
(which segment of the cycle covers ``now``), which is exactly where the
fine-grained execution would have been caught at that instant.  The
profile is therefore statistically equivalent to fine-grained
profiling while the substrate keeps one event per merged advance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.profiler import CostProfile
from ..obs.hub import Obs, ensure_hub

IDLE: Optional[int] = None


@dataclass
class ThreadState:
    """One thread's published state."""

    name: str
    current_operator: Optional[int] = IDLE
    snapshots_taken: int = 0
    # Sampled-accounting interval: while the simulated clock lies in
    # [interval_start, interval_end) the thread is executing
    # ``interval_ops`` segments cyclically (cumulative segment ends in
    # ``interval_bounds``, one cycle lasting ``interval_cycle_s``).
    interval_start: float = 0.0
    interval_end: float = 0.0
    interval_cycle_s: float = 0.0
    interval_bounds: Optional[Tuple[float, ...]] = field(
        default=None, repr=False
    )
    interval_ops: Optional[Tuple[Optional[int], ...]] = field(
        default=None, repr=False
    )


class ThreadRegistry:
    """Registry of live threads and their current operator indices."""

    def __init__(self) -> None:
        self._threads: Dict[str, ThreadState] = {}
        # Snapshot attributions resolved through an interval rather
        # than a point publication (profiler.sampled_intervals metric).
        self.interval_attributions = 0

    def register(self, name: str) -> ThreadState:
        if name in self._threads:
            raise ValueError(f"thread {name!r} already registered")
        state = ThreadState(name=name)
        self._threads[name] = state
        return state

    def state(self, name: str) -> ThreadState:
        """``name``'s state, for hot loops that publish by assigning
        ``current_operator`` (what :meth:`set_current` does)."""
        return self._threads[name]

    def set_current(self, name: str, operator: Optional[int]) -> None:
        """Publish the operator ``name`` is about to execute (None=idle).

        Mirrors the runtime setting the per-thread state variable on
        entry to an operator's processing logic.  Point publication
        supersedes any expired interval.
        """
        self._threads[name].current_operator = operator

    def set_interval(
        self,
        name: str,
        start: float,
        bounds: Tuple[float, ...],
        ops: Tuple[Optional[int], ...],
        repeats: int = 1,
    ) -> None:
        """Publish a merged time advance as a repeating segment cycle.

        ``bounds`` are cumulative segment end offsets within one cycle
        (``bounds[-1]`` is the cycle length) and ``ops[i]`` is the
        operator segment *i* attributes to.  The interval covers
        ``repeats`` consecutive cycles starting at simulated time
        ``start``.  The thread's point state is cleared (idle), so a
        snapshot falling outside the interval — e.g. exactly at its
        end, after the merged advance completed — reads idle, matching
        the fine-grained path between work items.
        """
        state = self._threads[name]
        cycle_s = bounds[-1]
        state.current_operator = IDLE
        state.interval_start = start
        state.interval_cycle_s = cycle_s
        state.interval_end = start + cycle_s * repeats
        state.interval_bounds = bounds
        state.interval_ops = ops

    def snapshot(
        self, now: Optional[float] = None
    ) -> Tuple[Tuple[str, Optional[int]], ...]:
        """One profiler wake-up: every thread's current operator.

        With ``now`` given, threads that published a covering interval
        are resolved positionally within their segment cycle; all other
        threads report their point state.
        """
        out = []
        for state in self._threads.values():
            state.snapshots_taken += 1
            operator = state.current_operator
            bounds = state.interval_bounds
            if (
                now is not None
                and bounds is not None
                and state.interval_start <= now < state.interval_end
            ):
                offset = (now - state.interval_start) % state.interval_cycle_s
                operator = state.interval_ops[bisect_right(bounds, offset)]
                self.interval_attributions += 1
            out.append((state.name, operator))
        return tuple(out)

    def __len__(self) -> int:
        return len(self._threads)


class SnapshotProfiler:
    """Accumulates registry snapshots into an operator cost profile."""

    def __init__(
        self, registry: ThreadRegistry, obs: Optional[Obs] = None
    ) -> None:
        self.registry = registry
        self._counters: Dict[int, int] = {}
        self._samples = 0
        hub = ensure_hub(obs)
        self._m_interval_samples = hub.registry.counter(
            "profiler.sampled_intervals",
            "snapshot attributions resolved via sampled-accounting "
            "intervals (fast-path merged advances)",
        )

    def sample(self, now: Optional[float] = None) -> None:
        """Take one snapshot and update the per-operator counters.

        ``now`` is the substrate's current simulated time; passing it
        lets threads publishing sampled-accounting intervals resolve
        positionally (see :meth:`ThreadRegistry.set_interval`).
        """
        self._samples += 1
        before = self.registry.interval_attributions
        for _thread, operator in self.registry.snapshot(now):
            if operator is not None:
                self._counters[operator] = (
                    self._counters.get(operator, 0) + 1
                )
        resolved = self.registry.interval_attributions - before
        if resolved:
            self._m_interval_samples.inc(resolved)

    @property
    def samples_taken(self) -> int:
        return self._samples

    def profile(self, n_operators: int) -> CostProfile:
        """Render the counters as a :class:`CostProfile`.

        ``n_operators`` fixes the index domain so operators never caught
        by the profiler appear with a zero count (they form the lightest
        profiling group).
        """
        counts = tuple(
            (idx, self._counters.get(idx, 0))
            for idx in range(n_operators)
        )
        return CostProfile(
            counts=counts,
            n_samples=sum(self._counters.values()),
        )

    def reset(self) -> None:
        self._counters.clear()
        self._samples = 0
