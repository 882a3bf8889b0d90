"""The adaptation-backend protocol: one period loop, many substrates.

Three things in this repo can drive the multi-level elastic control
loop to convergence: the tuple-level DES
(:class:`~repro.des.adaptation.DesAdaptationRunner`), the analytical
performance model (:class:`~repro.runtime.executor.AdaptationExecutor`
over a :class:`~repro.runtime.pe.ProcessingElement`), and the multi-PE
job executor (:class:`~repro.job.executor.JobAdaptationRunner`).  They
need different constructors — each substrate needs different knobs —
but one loop drives them all:
:func:`~repro.runtime.executor.run_periods` owns the 1-based period
counter and the stable-streak stop.

:class:`AdaptationBackend` pins the surface that loop needs as a
structural protocol: ``begin_run()``, ``step_period(k)``, the
``is_stable`` and ``events_pending`` properties, and ``result()``
returning a :class:`BackendResult` with ``trace``, ``final_threads``,
``final_n_queues`` and ``converged_throughput``.  Every substrate also
has ``set_warm_start(spec)``, accepting the same picklable
:class:`~repro.core.warmstart.WarmStartSpec` (a disabled or ``None``
spec must leave the stock cold-start decision log byte-identical).

The perfmodel executor and the DES runner share one implementation,
:class:`~repro.runtime.executor.AdaptationLoop`, whose one
observe→decide→apply step the job runner also takes for each PE.

The protocol is runtime-checkable so tests can assert conformance
without importing every substrate, but it is *structural*: nothing
needs to inherit from it.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .events import AdaptationTrace


@runtime_checkable
class BackendResult(Protocol):
    """What every substrate's ``result()`` hands back."""

    trace: AdaptationTrace

    @property
    def final_threads(self) -> int: ...

    @property
    def final_n_queues(self) -> int: ...

    @property
    def converged_throughput(self) -> float: ...


@runtime_checkable
class AdaptationBackend(Protocol):
    """A substrate :func:`~repro.runtime.executor.run_periods` can
    drive: period ``k`` of a run is ``step_period(k)``."""

    def begin_run(self) -> None: ...

    def step_period(self, k: int) -> float: ...

    @property
    def is_stable(self) -> bool: ...

    @property
    def events_pending(self) -> bool: ...

    def result(self) -> BackendResult: ...

    def set_warm_start(self, spec) -> None: ...
