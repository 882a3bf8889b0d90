"""Sticky-worker execution of multi-PE adaptation periods.

The parent :class:`~repro.job.executor.JobAdaptationRunner` owns the
lockstep loop, the channel routers and the job coordinator; this
module owns everything that runs *inside* a
:class:`~repro.runtime.pool.WorkerPool` worker.  The contract that
makes parallel runs byte-identical to sequential ones:

- **sticky state** — each worker builds its PEs'
  :class:`~repro.des.adaptation.DesAdaptationRunner`s once (via the
  same :func:`~repro.job.executor.build_pe_runner` the parent uses)
  and keeps them for the whole run, so simulator, coordinator and
  profiler state never pickle between periods.  PEs map to workers
  round-robin in topological order — a pure function of the job and
  the pool width, so the assignment is reproducible;
- **small records over the pipe** — per period-step a worker receives
  ``(pe_name, k, ingress_rates)`` and returns the observed throughput
  plus the *deltas* the parent must re-home: every log record of the
  step (decisions with seq/time/period stripped — the parent hub's
  clock re-assigns them — and the observation and change events),
  changed ``pe.<name>.``-scoped metric states, and memo cells created
  this step (so the parent's cache ends bit-identical to a sequential
  run's);
- **worker-local hub** — workers publish into a private
  :class:`~repro.obs.hub.ObservabilityHub` (or the null hub when the
  parent is detached, preserving detached-mode freedom).  The
  worker's unscoped ``loop.*`` bookkeeping is deliberately *not*
  shipped: the parent's record replay regenerates it.

Worker death (a crashed process, an OOM kill) surfaces as
:class:`~repro.runtime.pool.WorkerPoolError` from the pool with the
exit code; a worker-side exception ships its full traceback.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Dict, Optional, Tuple

from ..bench import cache
from ..obs.decisions import Decision
from ..obs.hub import NULL_HUB, ObservabilityHub
from ..runtime.pool import WorkerPool
from .executor import build_pe_runner, pe_step_inputs, step_pe

__all__ = ["JobWorkerSession"]


def _replayable(record) -> Tuple[str, Dict]:
    """A log record as ``(hub method, keyword arguments)``: the parent
    replays it with ``getattr(hub, method)(**kwargs)`` under its own
    sequence and clock.  A decision drops its seq, time and period; an
    event keeps its own ``time_s`` (the step stamped it)."""
    if isinstance(record, Decision):
        fields = dataclasses.asdict(record)
        del fields["seq"], fields["time_s"], fields["period"]
        return "decision", fields
    return record.kind, dataclasses.asdict(record.data)


class _WorkerState:
    """Everything one sticky worker keeps between calls."""

    def __init__(self, hub) -> None:
        self.hub = hub
        self.runners: Dict[str, object] = {}
        self.step_inputs: Dict[str, Tuple] = {}
        self.records_seen = 0
        self.metric_baseline: Dict[str, dict] = {}
        self.shipped_cache_keys: set = set()


def _init_job_worker(
    worker_id: int,
    job,
    machine,
    config,
    runner_kwargs,
    arrivals_factory,
    arrivals_key,
    detached: bool,
    n_workers: int,
) -> _WorkerState:
    """Build this worker's share of the job: PE ``i`` (topological
    order) lands on worker ``i % n_workers``."""
    hub = NULL_HUB if detached else ObservabilityHub()
    state = _WorkerState(hub)
    for i, pe in enumerate(job.pes):
        if i % n_workers != worker_id:
            continue
        state.runners[pe.name] = build_pe_runner(
            job,
            machine,
            config,
            i,
            pe,
            runner_kwargs,
            arrivals_factory,
            arrivals_key,
            hub,
        )
        state.step_inputs[pe.name] = pe_step_inputs(
            job, config, i, pe, arrivals_factory, arrivals_key
        )
    return state


def _begin_pe(state: _WorkerState, pe_name: str) -> bool:
    state.runners[pe_name].begin_run()
    return True


def _fresh_cache_entries(state: _WorkerState) -> Dict:
    """Memo cells created since the last ship (any PE of this worker).

    Unpicklable values are skipped permanently — they could never have
    crossed a pool boundary under ``run_cells`` either.
    """
    entries: Dict = {}
    for key, value in list(cache._STORE.items()):
        if key in state.shipped_cache_keys:
            continue
        state.shipped_cache_keys.add(key)
        try:
            pickle.dumps((key, value))
        except Exception:
            continue
        entries[key] = value
    return entries


def _step_pe(
    state: _WorkerState,
    pe_name: str,
    k: int,
    rates: Optional[Dict[int, float]],
) -> Dict:
    """One adaptation period for one PE; returns the re-homing report."""
    report = step_pe(
        state.runners[pe_name], state.step_inputs[pe_name], rates, k
    )
    records = []
    metrics: Dict[str, dict] = {}
    if state.hub is not NULL_HUB:
        log = state.hub.records()
        records = [_replayable(r) for r in log[state.records_seen:]]
        state.records_seen = len(log)
        exported = state.hub.registry.export_state(prefix="pe.")
        metrics = {
            name: entry
            for name, entry in exported.items()
            if state.metric_baseline.get(name) != entry
        }
        state.metric_baseline.update(metrics)
    report.update(
        records=records,
        metrics=metrics,
        cache=_fresh_cache_entries(state),
    )
    return report


def _finish_pe(state: _WorkerState, pe_name: str):
    """The PE's packaged adaptation result, fetched at end of run."""
    return state.runners[pe_name].result()


class JobWorkerSession:
    """Parent-side handle on one run's worth of sticky workers.

    Dispatch is two-phase per wave — :meth:`submit_step` for every PE
    in the wave, then :meth:`collect_step` in the *same order* — which
    keeps each worker's pipe strictly FIFO while letting different
    workers simulate concurrently.
    """

    def __init__(
        self,
        job,
        machine,
        config,
        runner_kwargs,
        arrivals_factory,
        arrivals_key,
        detached: bool,
        n_workers: int,
    ) -> None:
        self._pe_names = [pe.name for pe in job.pes]
        self._worker_of = {
            pe.name: i % n_workers for i, pe in enumerate(job.pes)
        }
        self.pool = WorkerPool(
            n_workers,
            _init_job_worker,
            (
                job,
                machine,
                config,
                runner_kwargs,
                arrivals_factory,
                arrivals_key,
                detached,
                n_workers,
            ),
        )

    def begin(self) -> None:
        for name in self._pe_names:
            self.pool.submit(self._worker_of[name], _begin_pe, name)
        for name in self._pe_names:
            self.pool.recv(self._worker_of[name])

    def submit_step(
        self, pe_name: str, k: int, rates: Optional[Dict[int, float]]
    ) -> None:
        self.pool.submit(
            self._worker_of[pe_name], _step_pe, pe_name, k, rates
        )

    def collect_step(self, pe_name: str) -> Dict:
        return self.pool.recv(self._worker_of[pe_name])

    def finish(self) -> Dict[str, object]:
        """Fetch every PE's final :class:`DesAdaptationResult`."""
        for name in self._pe_names:
            self.pool.submit(self._worker_of[name], _finish_pe, name)
        return {
            name: self.pool.recv(self._worker_of[name])
            for name in self._pe_names
        }

    def close(self) -> None:
        self.pool.close()
