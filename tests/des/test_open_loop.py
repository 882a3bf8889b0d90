"""Open-loop DES sources: offered-load accounting, bounded-queue
overflow, and equivalence with the saturated path when the schedule
saturates."""

from __future__ import annotations

import itertools

import pytest

from repro.des.engine import DesEngine, measure_throughput
from repro.graph.topologies import pipeline
from repro.obs.hub import ObservabilityHub
from repro.perfmodel.machine import laptop
from repro.runtime.queues import QueuePlacement
from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.schema import (
    ArrivalKind,
    ArrivalSpec,
    ModulationKind,
    ModulationSpec,
)


def _graph():
    return pipeline(4, cost_flops=1000.0, payload_bytes=128)


def _stream(rate, *, seed=0, **mod):
    modulation = ModulationSpec(**mod) if mod else ModulationSpec()
    spec = ArrivalSpec(
        kind=ArrivalKind.DETERMINISTIC, rate=rate, modulation=modulation
    )
    return ArrivalProcess(spec, seed=seed).stream(0.0)


BURST = dict(kind=ModulationKind.ONOFF, on_s=0.002, off_s=0.002)


class TestOfferedLoad:
    def test_underloaded_run_reports_offered_utilization(self):
        graph = _graph()
        src = graph.sources[0].index
        r = measure_throughput(
            graph,
            laptop(4),
            QueuePlacement.of([1]),
            2,
            warmup_s=0.002,
            measure_s=0.01,
            arrivals={src: _stream(10_000.0)},
        )
        assert r.open_loop
        assert not r.deadlocked
        assert r.offered_utilization >= 0.95
        assert r.underloaded
        # Throughput is offered-load-bound, far below capacity.
        assert r.source_tuples_per_s == pytest.approx(10_000.0, rel=0.15)

    def test_closed_loop_run_is_not_open_loop(self):
        r = measure_throughput(
            _graph(),
            laptop(4),
            QueuePlacement.of([1]),
            2,
            warmup_s=0.002,
            measure_s=0.01,
        )
        assert not r.open_loop
        assert r.offered_utilization == 1.0
        assert not r.underloaded
        assert r.offered_tuples_per_s == 0.0

    def test_saturating_schedule_matches_saturated_throughput(self):
        # With the due-backlog batched like the saturated fast path, a
        # schedule that outruns the PE reproduces its measurements.
        placement = QueuePlacement.of([1])
        graph = _graph()
        src = graph.sources[0].index
        saturated = measure_throughput(
            graph, laptop(4), placement, 2,
            warmup_s=0.002, measure_s=0.01,
        )
        open_loop = measure_throughput(
            graph, laptop(4), placement, 2,
            warmup_s=0.002, measure_s=0.01,
            arrivals={src: _stream(50_000_000.0)},
        )
        assert open_loop.sink_tuples_per_s == pytest.approx(
            saturated.sink_tuples_per_s, rel=0.01
        )


class TestOverflow:
    def test_drop_policy_sheds_at_full_queues(self):
        graph = _graph()
        src = graph.sources[0].index
        hub = ObservabilityHub()
        r = measure_throughput(
            graph,
            laptop(4),
            QueuePlacement.of([1]),
            2,
            warmup_s=0.002,
            measure_s=0.01,
            queue_capacity=4,
            arrivals={src: _stream(5_000_000.0, **BURST)},
            overflow="drop",
            obs=hub,
        )
        assert not r.deadlocked
        assert r.dropped_tuples > 0
        assert r.offered_utilization < 0.5
        # The obs counter spans warmup too, so it dominates the
        # measured-window count.
        metric = hub.registry.get("des.dropped_tuples")
        assert metric is not None
        assert metric.value >= r.dropped_tuples

    def test_block_policy_absorbs_burst_without_drops(self):
        graph = _graph()
        src = graph.sources[0].index
        r = measure_throughput(
            graph,
            laptop(4),
            QueuePlacement.of([1]),
            2,
            warmup_s=0.002,
            measure_s=0.01,
            queue_capacity=4,
            arrivals={src: _stream(5_000_000.0, **BURST)},
            overflow="block",
        )
        # Backpressure, not shedding — and no deadlock against the
        # event-driven parking path.
        assert not r.deadlocked
        assert r.dropped_tuples == 0
        assert r.sink_tuples_per_s > 0

    def test_drop_without_queues_degrades_to_inline_execution(self):
        # With no scheduler queues the source region is the whole
        # graph; there is no ingress queue to overflow, so nothing is
        # shed even under the drop policy.
        graph = _graph()
        src = graph.sources[0].index
        r = measure_throughput(
            graph,
            laptop(4),
            QueuePlacement.empty(),
            0,
            warmup_s=0.002,
            measure_s=0.01,
            arrivals={src: _stream(5_000_000.0, **BURST)},
            overflow="drop",
        )
        assert not r.deadlocked
        assert r.dropped_tuples == 0
        assert r.sink_tuples_per_s > 0


class TestValidation:
    def test_invalid_overflow_rejected(self):
        with pytest.raises(ValueError):
            DesEngine(
                _graph(),
                laptop(4),
                QueuePlacement.empty(),
                0,
                overflow="shed",
            )

    def test_non_source_arrival_key_rejected(self):
        with pytest.raises(ValueError):
            DesEngine(
                _graph(),
                laptop(4),
                QueuePlacement.empty(),
                0,
                arrivals={2: iter([0.0])},
            )


def _dyadic_arrivals(step=2.0**-10):
    # Exactly representable due times, so chained dispatch times equal
    # them bit for bit and ties with other events are exact.
    return (k * step for k in itertools.count(1))


def _drop_engine():
    graph = _graph()
    engine = DesEngine(
        graph,
        laptop(1),
        QueuePlacement.of([1]),
        0,
        queue_capacity=1,
        arrivals={graph.sources[0].index: _dyadic_arrivals()},
        overflow="drop",
    )
    engine.start()
    return engine


class TestDropRunCoalescing:
    """A drop source that holds no core sheds runs of arrivals inline,
    with the counts and timing of one event per arrival."""

    STEP = 2.0**-10

    def test_counts_split_at_the_run_until_horizon(self):
        # No scheduler thread drains the ingress: after the first
        # admission every arrival is shed.
        engine = _drop_engine()
        engine.sim.run_until(10.5 * self.STEP)
        assert engine._offered_count == 10.0
        assert engine._dropped_count == 9.0
        assert engine._source_count == 1.0
        # One admission event plus a handful of wakes, not one event
        # per shed arrival.
        assert engine.sim.events_processed <= 5
        engine.sim.run_until(20.5 * self.STEP)
        assert engine._offered_count == 20.0
        assert engine._dropped_count == 19.0

    def test_run_stops_before_a_tie_with_a_pending_event(self):
        # A drainer frees the ingress at exactly the fifth arrival's
        # due time.  It was scheduled first, so it runs first and the
        # fifth arrival is admitted, exactly as with one event per
        # arrival.
        engine = _drop_engine()
        sim = engine.sim
        ingress = engine._queues[1]

        def drainer():
            yield 5 * self.STEP
            sim.pop_nowait(ingress)

        sim.spawn(drainer())
        sim.run_until(5.5 * self.STEP)
        assert engine._offered_count == 5.0
        assert engine._source_count == 2.0
        assert engine._dropped_count == 3.0
        sim.run_until(20.5 * self.STEP)
        assert engine._offered_count == 20.0
        assert engine._source_count == 2.0
        assert engine._dropped_count == 18.0


class TestHelpPath:
    def test_fast_consumers_are_helped_without_region_work(self):
        # Every region of the unlocked pipeline is fast, so each help
        # is one coalesced advance; no _region_work generator is made.
        hub = ObservabilityHub()
        engine = DesEngine(
            pipeline(6, cost_flops=1000.0, payload_bytes=128),
            laptop(4),
            QueuePlacement.of([1, 3]),
            0,
            queue_capacity=4,
            obs=hub,
        )
        calls = []
        region_work = engine._region_work

        def counting(*args, **kwargs):
            calls.append(args)
            return region_work(*args, **kwargs)

        engine._region_work = counting
        result = engine.run(warmup_s=0.001, measure_s=0.004)
        assert result.sink_tuples > 0
        assert hub.registry.get("des.backpressure_helps").value > 0
        assert calls == []
