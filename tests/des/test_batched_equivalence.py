"""Batched-vs-unbatched equivalence: decisions and memo cells.

Batching changes the *event granularity* of the simulation — how many
tuples one kernel event carries — not the per-tuple costs, which the
burst tables accumulate exactly.  Granularity still perturbs the
microstructure (who waits on whom at batch boundaries), so raw sink
counts can drift by a few percent between batch sizes.  What the
coordinator *decides* is the regression surface the zoo pins, and this
suite asserts it is byte-identical across batch granularities on a
sample of the scenario zoo, including open-loop arrival processes,
drop/block overflow edges, profiled runs (``profile_from_execution``
defaults on for every zoo scenario) and memoized measurement periods.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench import cache
from repro.des.adaptation import DesAdaptationRunner
from repro.des.channels import ChannelConfig
from repro.des.engine import DesEngine
from repro.graph.topologies import pipeline
from repro.obs.hub import ObservabilityHub
from repro.perfmodel.machine import laptop
from repro.runtime.config import RuntimeConfig
from repro.runtime.queues import QueuePlacement
from repro.scenarios.compile import compile_scenario
from repro.scenarios.run import run_on_des
from repro.scenarios.zoo import load_named

# Zoo sample: open-loop underload, an arrival spike, ON/OFF bursts
# against full ingress queues, and a closed-loop profiled DAG.  All
# four run with sampled profiling and measurement memoization — the
# zoo runner's defaults.
ZOO_SAMPLE = (
    "poisson-underload",
    "flash-crowd-spike",
    "onoff-burst-overflow",
    "diamond-branches",
)


def _signature(result):
    """The regression signature a batch size must not perturb."""
    return (
        result.decisions,
        result.final_threads,
        result.final_n_queues,
        result.periods,
    )


def _run_with_channel(name, channel=None):
    compiled = compile_scenario(load_named(name))
    if channel is not None:
        compiled = dataclasses.replace(compiled, channel=channel)
    return run_on_des(compiled)


class TestZooDecisionInvariance:
    @pytest.mark.parametrize("name", ZOO_SAMPLE)
    def test_batch_size_does_not_change_decisions(self, name):
        declared = _run_with_channel(name)
        unbatched = _run_with_channel(name, ChannelConfig(batch_size=1))
        wide = _run_with_channel(name, ChannelConfig(batch_size=32))
        assert _signature(unbatched) == _signature(declared)
        assert _signature(wide) == _signature(declared)


def _adaptation_run(channel):
    hub = ObservabilityHub()
    runner = DesAdaptationRunner(
        pipeline(8, cost_flops=4000.0, payload_bytes=128),
        laptop(4),
        RuntimeConfig(cores=4, seed=2),
        warmup_s=0.001,
        measure_s=0.004,
        profile_from_execution=True,
        obs=hub,
        channel=channel,
    )
    result = runner.run(max_periods=40)
    decisions = tuple(
        (d.rule, d.set_threads, d.set_n_queues) for d in hub.decisions()
    )
    return result, decisions, hub


def _counter(hub, name):
    metric = hub.registry.get(name)
    return float(metric.value) if metric is not None else 0.0


class TestMemoization:
    def test_memoized_repeat_is_identical(self):
        cache.clear()
        first, dec_first, _ = _adaptation_run(ChannelConfig())
        again, dec_again, hub = _adaptation_run(ChannelConfig())
        # The repeat run replays memoized periods rather than
        # re-simulating them, and reproduces the run exactly.
        assert _counter(hub, "bench.cache_hits") > 0
        assert dec_again == dec_first
        assert again.converged_throughput == first.converged_throughput
        assert again.final_threads == first.final_threads

    def test_channel_key_partitions_memo_cells(self):
        # Differently-batched runs must never share measurement cells:
        # the channel fingerprint is part of the memo key, so an
        # unbatched run after a batched one grows the cell count
        # instead of replaying the batched run's measurements.
        cache.clear()
        _adaptation_run(ChannelConfig())
        batched_cells = cache.stats()["entries"]
        _adaptation_run(ChannelConfig(batch_size=1))
        assert cache.stats()["entries"] > batched_cells


class TestFlushTimeout:
    def test_nonbinding_flush_horizon_is_byte_identical(self):
        # A flush timeout wider than any batch's fill time never caps
        # a burst, so the run is the same simulation event for event.
        results = []
        for channel in (
            ChannelConfig(batch_size=8),
            ChannelConfig(batch_size=8, flush_timeout_s=1.0),
        ):
            graph = pipeline(4, cost_flops=2000.0, payload_bytes=128)
            engine = DesEngine(
                graph,
                laptop(cores=4),
                QueuePlacement.full(graph),
                scheduler_threads=2,
                channel=channel,
            )
            result = engine.run(warmup_s=0.002, measure_s=0.01)
            results.append(
                (result.sink_tuples, engine.sim.events_processed)
            )
        assert results[0] == results[1]
