"""Parallel multi-PE execution is byte-identical to sequential.

The job executor's ``jobs > 1`` path fans PEs across a sticky
:class:`~repro.runtime.pool.WorkerPool` and re-homes every
worker-side effect — decisions, scoped metrics, memo cells — into the
parent in deterministic PE order.  The guarantee is *byte identity*,
not statistical agreement: on every multi-PE zoo scenario the merged
hub log — decisions and the observation and change events, including
hub-assigned seq numbers, periods and scopes — the metric snapshot, the memo-cache key set and the throughput trace must
match a sequential run exactly.  Anything weaker would make ``--jobs``
a semantics switch instead of a performance switch.

The pool starts only when some channel-topology wave holds two or more
PEs: the forward ``fig07-2pe-passthrough`` job does, the two shaped
zoo chains do not (they run in-process at any ``jobs``).  A shaped
fan-out job below keeps multi-wave parallel dispatch covered.
"""

from __future__ import annotations

import pytest

from repro.bench import cache
from repro.obs.hub import ObservabilityHub
from repro.runtime.pool import WorkerPoolError
from repro.scenarios.compile import compile_scenario
from repro.scenarios.run import make_backend
from repro.scenarios.schema import scenario_from_dict
from repro.scenarios.zoo import load_named

ZOO_MULTI_PE = (
    "fig07-2pe-passthrough",
    "multi-pe-keyhash-scale",
    "multi-pe-sink-contention",
)


# ingest -> {pa (2 replicas), pc} -> sinkpe under shuffle: waves
# [ingest] [pa, pc] [sinkpe], so the middle wave runs two PEs at once.
FANOUT_SHUFFLE = {
    "version": 1,
    "name": "fanout-shuffle",
    "topology": {
        "shape": "custom",
        "payload_bytes": 128,
        "nodes": [
            {"name": "src", "kind": "source", "cost_flops": 50.0},
            {"name": "a", "cost_flops": 4000.0},
            {"name": "c", "cost_flops": 2000.0},
            {"name": "snk", "kind": "sink", "cost_flops": 10.0},
        ],
        "edges": [["src", "a"], ["src", "c"], ["a", "snk"], ["c", "snk"]],
    },
    "machine": {"profile": "laptop", "cores": 4},
    "pes": [
        {"name": "ingest", "operators": ["src"]},
        {"name": "pa", "operators": ["a"], "replicas": 2},
        {"name": "pc", "operators": ["c"]},
        {"name": "sinkpe", "operators": ["snk"]},
    ],
    "partition": {"strategy": "shuffle"},
    "run": {
        "backend": "des",
        "seed": 5,
        "warmup_s": 0.001,
        "measure_s": 0.004,
        "queue_capacity": 16,
        "max_periods": 8,
        "stop_after_stable_periods": 4,
    },
}


WAVE_WIDTHS = {
    "fig07-2pe-passthrough": (2,),
    "multi-pe-keyhash-scale": (1, 1, 1),
    "multi-pe-sink-contention": (1, 1, 1),
    "fanout-shuffle": (1, 2, 1),
}


def _scenario(name):
    if name == FANOUT_SHUFFLE["name"]:
        return scenario_from_dict(FANOUT_SHUFFLE)
    return load_named(name)


def _run(name, jobs, warm=False):
    """One full run at the given pool width; cold cache unless
    ``warm`` (memoization reuse is part of the regression surface)."""
    if not warm:
        cache.clear()
    compiled = compile_scenario(_scenario(name))
    hub = ObservabilityHub()
    runner = make_backend(compiled, obs=hub, jobs=jobs)
    spec = compiled.scenario.run
    result = runner.run(
        max_periods=spec.max_periods,
        stop_after_stable_periods=spec.stop_after_stable_periods,
    )
    return runner, result, hub


def _signature(result, hub):
    """Everything an observer could diff between two runs."""
    return (
        hub.records(),
        hub.registry.snapshot(),
        frozenset(cache._STORE),
        dict(result.final_replicas),
        result.final_threads,
        result.final_n_queues,
        [o.throughput for o in result.trace.observations],
        [o.threads for o in result.trace.observations],
    )


class TestByteIdentity:
    @pytest.mark.parametrize("name", ZOO_MULTI_PE + ("fanout-shuffle",))
    def test_parallel_matches_sequential(self, name):
        _seq, seq_result, seq_hub = _run(name, jobs=1)
        seq_sig = _signature(seq_result, seq_hub)
        par, par_result, par_hub = _run(name, jobs=2)
        # The pool engages exactly when a wave can run two PEs at
        # once: a silent sequential fallback on the forward job or the
        # fan-out would make this test vacuous, and a pool on a chain
        # is waste.
        widths = tuple(len(wave) for wave in par._waves())
        assert widths == WAVE_WIDTHS[name]
        assert (par._pe_results is not None) == (max(widths) >= 2)
        assert _signature(par_result, par_hub) == seq_sig

    def test_parallel_run_on_warm_cache_matches(self):
        name = ZOO_MULTI_PE[0]
        _run(name, jobs=1)  # prime the memo cache
        # Warm baseline: memo hits skip simulation, which legitimately
        # shifts sim-event metrics vs a cold run, so the parallel warm
        # run is held against a *sequential warm* run.
        _seq, seq_result, seq_hub = _run(name, jobs=1, warm=True)
        seq_sig = _signature(seq_result, seq_hub)
        # Workers inherit the warm cache at fork and ship back nothing
        # new; the parent's key set must not drift either.
        before = frozenset(cache._STORE)
        par, par_result, par_hub = _run(name, jobs=2, warm=True)
        assert par._pe_results is not None
        assert _signature(par_result, par_hub) == seq_sig
        assert frozenset(cache._STORE) == before

    @pytest.mark.parametrize("name", ZOO_MULTI_PE)
    def test_per_pe_results_match(self, name):
        _seq, seq_result, _h1 = _run(name, jobs=1)
        _par, par_result, _h2 = _run(name, jobs=2)
        assert (
            seq_result.pe_results.keys() == par_result.pe_results.keys()
        )
        for pe_name, seq_pe in seq_result.pe_results.items():
            par_pe = par_result.pe_results[pe_name]
            assert par_pe.final_threads == seq_pe.final_threads
            assert par_pe.final_n_queues == seq_pe.final_n_queues
            assert par_pe.final_placement == seq_pe.final_placement
            assert [
                (o.throughput, o.threads, o.n_queues)
                for o in par_pe.trace.observations
            ] == [
                (o.throughput, o.threads, o.n_queues)
                for o in seq_pe.trace.observations
            ]


def _crash_step(state, pe_name, k, rates):
    import os

    os._exit(23)


class TestWorkerCrash:
    def test_crash_surfaces_as_worker_pool_error(self, monkeypatch):
        cache.clear()
        compiled = compile_scenario(load_named(ZOO_MULTI_PE[0]))
        runner = make_backend(compiled, obs=None, jobs=2)
        monkeypatch.setattr("repro.job.parallel._step_pe", _crash_step)
        with pytest.raises(WorkerPoolError):
            runner.run(max_periods=4, stop_after_stable_periods=None)
        # The failed session is torn down, not leaked.
        assert runner._session is None
