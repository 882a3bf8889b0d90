"""The observability hub: one attach point for a whole elastic run.

An :class:`ObservabilityHub` bundles a :class:`~repro.obs.registry.
MetricsRegistry` with the unified, sequence-numbered decision/event
log.  The adaptation executor advances the hub's clock once per
period (:meth:`tick`); controllers emit :meth:`decision` records; the
executor produces the stable :mod:`repro.runtime.events` dataclasses
*through* the hub (:meth:`observation`, :meth:`thread_change`,
:meth:`placement_change`) so every trace event lands in the same
ordered log as the decision that caused it.

When nothing is attached, components hold :data:`NULL_HUB`, whose
methods construct the same event dataclasses but record nothing —
instrumented and un-instrumented runs are byte-identical.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..runtime.events import Observation, PlacementChange, ThreadCountChange
from .decisions import Decision, LoggedEvent
from .registry import MetricsRegistry, NULL_REGISTRY

Record = Union[Decision, LoggedEvent]

_THROUGHPUT_BUCKETS = (
    1e2,
    1e3,
    1e4,
    1e5,
    1e6,
    1e7,
    1e8,
)


class ObservabilityHub:
    """Live metrics + decision log for one (or more) elastic runs."""

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._log: List[Record] = []
        self._seq = 0
        self._now = 0.0
        self._period = -1
        reg = self.registry
        self._m_periods = reg.counter(
            "loop.periods", "adaptation periods executed"
        )
        self._m_decisions = reg.counter(
            "loop.decisions", "controller decisions emitted"
        )
        self._m_thread_changes = reg.counter(
            "loop.thread_changes", "applied scheduler-thread changes"
        )
        self._m_placement_changes = reg.counter(
            "loop.placement_changes", "applied queue-placement changes"
        )
        self._m_threads = reg.gauge(
            "loop.threads", "current scheduler thread count"
        )
        self._m_queues = reg.gauge(
            "loop.n_queues", "current scheduler queue count"
        )
        self._m_throughput = reg.histogram(
            "loop.observed_throughput",
            bounds=_THROUGHPUT_BUCKETS,
            description="observed throughput per adaptation period",
        )

    # ------------------------------------------------------------------
    # clock / sequencing
    # ------------------------------------------------------------------
    def tick(self, time_s: float) -> None:
        """Advance the hub clock to the start of a new adaptation period."""
        self._now = time_s
        self._period += 1
        self._m_periods.inc()

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def decision(
        self,
        *,
        component: str,
        mode: str,
        rule: str,
        detail: str = "",
        observed: float = 0.0,
        trend: str = "flat",
        history_hit: bool = False,
        satisfaction: Optional[float] = None,
        set_threads: Optional[int] = None,
        set_n_queues: Optional[int] = None,
        note: str = "",
        scope: str = "",
    ) -> Decision:
        """Record one controller decision at the current clock/period."""
        record = Decision(
            seq=self._next_seq(),
            time_s=self._now,
            period=self._period,
            component=component,
            mode=mode,
            rule=rule,
            detail=detail,
            observed=observed,
            trend=trend,
            history_hit=history_hit,
            satisfaction=satisfaction,
            set_threads=set_threads,
            set_n_queues=set_n_queues,
            note=note,
            scope=scope,
        )
        self._log.append(record)
        self._m_decisions.inc()
        self.registry.counter(
            f"loop.rule.{rule}", f"decisions attributed to rule {rule}"
        ).inc()
        return record

    # ------------------------------------------------------------------
    # trace events (the stable public types, produced through the hub)
    # ------------------------------------------------------------------
    def observation(
        self,
        *,
        time_s: float,
        throughput: float,
        true_throughput: float,
        threads: int,
        n_queues: int,
        mode: str,
    ) -> Observation:
        event = Observation(
            time_s=time_s,
            throughput=throughput,
            true_throughput=true_throughput,
            threads=threads,
            n_queues=n_queues,
            mode=mode,
        )
        self._log.append(
            LoggedEvent(
                seq=self._next_seq(),
                kind="observation",
                time_s=time_s,
                data=event,
            )
        )
        self._m_threads.set(threads)
        self._m_queues.set(n_queues)
        self._m_throughput.observe(throughput)
        return event

    def thread_change(
        self, *, time_s: float, old_threads: int, new_threads: int
    ) -> ThreadCountChange:
        event = ThreadCountChange(
            time_s=time_s,
            old_threads=old_threads,
            new_threads=new_threads,
        )
        self._log.append(
            LoggedEvent(
                seq=self._next_seq(),
                kind="thread_change",
                time_s=time_s,
                data=event,
            )
        )
        self._m_thread_changes.inc()
        return event

    def placement_change(
        self, *, time_s: float, old_n_queues: int, new_n_queues: int
    ) -> PlacementChange:
        event = PlacementChange(
            time_s=time_s,
            old_n_queues=old_n_queues,
            new_n_queues=new_n_queues,
        )
        self._log.append(
            LoggedEvent(
                seq=self._next_seq(),
                kind="placement_change",
                time_s=time_s,
                data=event,
            )
        )
        self._m_placement_changes.inc()
        return event

    # ------------------------------------------------------------------
    # reading the log
    # ------------------------------------------------------------------
    def records(self) -> Tuple[Record, ...]:
        """The full log (decisions + events) in sequence order."""
        return tuple(self._log)

    def decisions(self) -> Tuple[Decision, ...]:
        return tuple(r for r in self._log if isinstance(r, Decision))

    def events(self, kind: Optional[str] = None) -> Tuple[LoggedEvent, ...]:
        return tuple(
            r
            for r in self._log
            if isinstance(r, LoggedEvent)
            and (kind is None or r.kind == kind)
        )


class NullHub:
    """Detached hub: produces the trace dataclasses, records nothing."""

    enabled = False
    registry = NULL_REGISTRY

    def tick(self, time_s: float) -> None:
        pass

    def decision(self, **kwargs) -> None:
        return None

    def observation(self, **kwargs) -> Observation:
        return Observation(**kwargs)

    def thread_change(self, **kwargs) -> ThreadCountChange:
        return ThreadCountChange(**kwargs)

    def placement_change(self, **kwargs) -> PlacementChange:
        return PlacementChange(**kwargs)

    def records(self) -> Tuple[Record, ...]:
        return ()

    def decisions(self) -> Tuple[Decision, ...]:
        return ()

    def events(self, kind: Optional[str] = None) -> Tuple[LoggedEvent, ...]:
        return ()


NULL_HUB = NullHub()

Obs = Union[ObservabilityHub, NullHub]


def ensure_hub(obs: Optional[Obs]) -> Obs:
    """Normalize an optional hub argument: ``None`` -> the null hub."""
    return NULL_HUB if obs is None else obs
