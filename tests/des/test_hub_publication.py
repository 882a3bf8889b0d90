"""The DES engine publishes its ``des.*`` hub metrics from its own
tallies, once per measurement run.

- Attaching a hub never changes what the engine simulates: the same
  window run with an :class:`ObservabilityHub` and with the null hub
  gives an equal :class:`DesResult` and the same number of processed
  events, closed loop, open loop under ``drop`` and with the sampled
  profiler attached.
- ``des.parked_threads`` reports the threads parked when the last run
  ended, so it can never exceed the last engine's thread count.
"""

from __future__ import annotations

import pytest

from repro.bench import cache
from repro.des.engine import DesEngine
from repro.graph.topologies import pipeline
from repro.obs import NULL_HUB, ObservabilityHub
from repro.perfmodel.machine import laptop
from repro.runtime.queues import QueuePlacement
from repro.scenarios import find_scenario, load_compiled, run_scenario


def _closed(obs, profiled=False):
    graph = pipeline(6, cost_flops=1000.0, payload_bytes=128)
    engine = DesEngine(
        graph,
        laptop(4),
        QueuePlacement.of([2, 4]),
        3,
        obs=obs,
    )
    profile = None
    if profiled:
        profiler = engine.attach_profiler(period_s=2.5e-5, sampled=True)
    result = engine.run(warmup_s=0.002, measure_s=0.01)
    if profiled:
        profile = profiler.profile(len(graph)).counts
    return engine, (result, profile)


def _dropping(obs):
    compiled = load_compiled(find_scenario("onoff-burst-overflow", None))
    assert compiled.overflow == "drop"
    run = compiled.scenario.run
    engine = DesEngine(
        compiled.graph,
        compiled.machine,
        QueuePlacement.of((1,)),
        2,
        queue_capacity=run.queue_capacity,
        obs=obs,
        arrivals=compiled.arrival_streams(0.013),
        overflow=compiled.overflow,
        channel=compiled.channel,
    )
    return engine, engine.run(warmup_s=0.0, measure_s=run.measure_s)


CASES = {
    "closed-loop": lambda obs: _closed(obs),
    "open-loop-drop": _dropping,
    "sampled-profiler": lambda obs: _closed(obs, profiled=True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_hub_never_changes_the_simulation(case):
    attached, got = CASES[case](ObservabilityHub())
    detached, want = CASES[case](NULL_HUB)
    assert got == want
    assert attached.sim.events_processed == detached.sim.events_processed
    if case == "open-loop-drop":
        assert want.dropped_tuples > 0


def test_counters_publish_the_window_tallies():
    # With no warm-up, the hub holds exactly the window's tallies.
    hub = ObservabilityHub()
    engine, result = _dropping(hub)
    value = lambda name: hub.registry.get(name).value  # noqa: E731
    assert value("des.runs") == 1.0
    assert value("des.sink_tuples") == result.sink_tuples
    assert value("des.dropped_tuples") == result.dropped_tuples
    assert value("des.offered_tuples") == engine._offered_count
    assert value("des.queue_pushes") == sum(
        q.total_put for q in engine._queues.values()
    )


def test_parked_gauge_stays_within_the_final_thread_count():
    # Every adaptation period builds a fresh engine and drops the old
    # one with threads still parked; the gauge reports the last run.
    cache.clear()
    hub = ObservabilityHub()
    compiled = load_compiled(find_scenario("diurnal-poisson", None))
    (result,) = run_scenario(compiled, obs=hub, warm_start="off")
    assert result.periods > 1
    parked = hub.registry.get("des.parked_threads").value
    assert 0.0 <= parked <= result.final_threads
