"""Scoped observability views for multi-PE jobs.

A multi-PE job runs several per-PE controller stacks against ONE
:class:`~repro.obs.hub.ObservabilityHub`, so the job's whole causal
story lands in a single sequence-ordered log.  To keep the streams
apart, each PE's components receive a :class:`ScopedObs` view of the
shared hub instead of the hub itself:

- metric names gain a dotted prefix (``pe.ingest.des.sink_tuples``),
  so per-PE counters never collide in the shared registry;
- decisions are tagged with the scope
  (:attr:`~repro.obs.decisions.Decision.scope`), so one PE's R1-R5
  trace is recoverable from the merged log with a filter — the
  property the multi-PE equivalence tests pin;
- trace events (observations, thread and placement changes) forward
  to the underlying hub unchanged, so sequence numbers keep one total
  order across PEs;
- the clock does not forward: the job ticks the hub once per period
  and every PE's step runs inside that tick, so a scoped
  :meth:`ScopedObs.tick` is a no-op.

Scopes nest: scoping an already-scoped view concatenates the prefixes
(``pe.ingest`` then ``profiler`` gives ``pe.ingest.profiler``).  The
null hub scopes to itself — detached multi-PE runs stay free.
"""

from __future__ import annotations

from typing import Optional

from .hub import NULL_HUB, Obs, ensure_hub
from .registry import MetricsRegistry


class ScopedRegistry:
    """Prefixing facade over a shared :class:`MetricsRegistry`."""

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def counter(self, name: str, description: str = ""):
        return self._registry.counter(self._name(name), description)

    def gauge(self, name: str, description: str = ""):
        return self._registry.gauge(self._name(name), description)

    def histogram(self, name: str, *args, **kwargs):
        return self._registry.histogram(self._name(name), *args, **kwargs)


class ScopedObs:
    """A hub view that namespaces metrics and tags decisions.

    Duck-typed to the recording half of the :data:`~repro.obs.hub.Obs`
    interface, so any component taking ``obs`` works unchanged inside a
    job; the log is read from the job's hub.
    """

    def __init__(self, obs: Optional[Obs], scope: str) -> None:
        base = ensure_hub(obs)
        if isinstance(base, ScopedObs):
            scope = f"{base.scope}.{scope}"
            base = base.hub
        self.hub = base
        self.scope = scope
        self.enabled = base.enabled
        self.registry = ScopedRegistry(base.registry, scope)

    def tick(self, time_s: float) -> None:
        """No-op: the job owns the clock.  It ticks the shared hub once
        per period and steps every PE inside that tick, so each PE's
        records carry the job's period."""

    def decision(self, **kwargs):
        kwargs.setdefault("scope", self.scope)
        return self.hub.decision(**kwargs)

    def observation(self, **kwargs):
        return self.hub.observation(**kwargs)

    def thread_change(self, **kwargs):
        return self.hub.thread_change(**kwargs)

    def placement_change(self, **kwargs):
        return self.hub.placement_change(**kwargs)


def scoped(obs: Optional[Obs], scope: str):
    """Scope a hub view, short-circuiting the null hub (detached runs
    pay nothing for scoping)."""
    base = ensure_hub(obs)
    if base is NULL_HUB:
        return NULL_HUB
    return ScopedObs(base, scope)
