"""Resumption elision is exact: it never changes what a run does.

``Simulator._advance`` resumes a task in place when its timed wait ends
strictly before every pending entry and within the ``run_until``
horizon.  These tests compare the kernel against a reference in which
elision can never fire (its horizon always reads ``-inf``, so every
timed wait goes through the heap): synthetic processes must resume in
the same ``(now, task)`` order, and random engine runs must measure the
same results, profiles and final clock.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.des import (
    Acquire,
    Get,
    Put,
    Release,
    SimLock,
    SimQueue,
    Simulator,
    Timeout,
    WakeAt,
)
from repro.des.engine import DesEngine
from repro.graph.analysis import queueable_indices
from repro.graph.topologies import bushy, data_parallel, mixed, pipeline
from repro.perfmodel import laptop
from repro.runtime.queues import QueuePlacement


class ReferenceSimulator(Simulator):
    """The kernel with resumption elision disabled."""

    @property
    def horizon(self) -> float:
        return -math.inf

    @horizon.setter
    def horizon(self, value: float) -> None:
        pass


# ----------------------------------------------------------------------
# synthetic processes
# ----------------------------------------------------------------------
def _dyadic(rng: random.Random) -> float:
    # Multiples of 1/8: sums stay exact, so waits tie often.
    return rng.randint(0, 8) * 0.125


def _worker(sim, name, rng, queues, locks, trace, steps):
    for _ in range(steps):
        trace.append((sim.now, name))
        roll = rng.random()
        if roll < 0.25:
            yield _dyadic(rng)
        elif roll < 0.3:
            yield rng.randint(0, 2)
        elif roll < 0.4:
            yield Timeout(_dyadic(rng))
        elif roll < 0.55:
            yield WakeAt(sim.now + _dyadic(rng))
        elif roll < 0.7:
            yield Get(rng.choice(queues))
        elif roll < 0.85:
            yield Put(rng.choice(queues), name)
        else:
            lock = rng.choice(locks)
            yield Acquire(lock)
            trace.append((sim.now, name))
            yield _dyadic(rng)
            trace.append((sim.now, name))
            yield Release(lock)
    trace.append((sim.now, name))


def _synthetic_run(sim_cls, seed, horizons):
    sim = sim_cls()
    rng = random.Random(seed)
    queues = [
        SimQueue(capacity=rng.randint(1, 3), name=f"q{i}")
        for i in range(rng.randint(1, 3))
    ]
    locks = [SimLock(name=f"l{i}") for i in range(rng.randint(1, 2))]
    trace = []
    for i in range(rng.randint(2, 7)):
        sim.spawn(
            _worker(
                sim,
                f"p{i}",
                random.Random(rng.random()),
                queues,
                locks,
                trace,
                rng.randint(5, 60),
            ),
            name=f"p{i}",
        )
    returned = [sim.run_until(h) for h in horizons]
    return sim, trace, returned


def _horizons(rng):
    # Dyadic ends land on event times, the others fall between them;
    # one end repeats, and the last call drains the heap.
    ends = [rng.randint(1, 40) * 0.125 for _ in range(3)]
    ends += [rng.uniform(0.0, 6.0) for _ in range(3)]
    ends.append(rng.choice(ends))
    return sorted(ends) + [math.inf]


@pytest.mark.parametrize("seed", range(40))
def test_synthetic_trace_matches_reference(seed):
    horizons = _horizons(random.Random(1000 + seed))
    ref, ref_trace, ref_returned = _synthetic_run(
        ReferenceSimulator, seed, horizons
    )
    sim, trace, returned = _synthetic_run(Simulator, seed, horizons)
    assert trace == ref_trace
    assert returned == ref_returned
    assert sim.events_processed == ref.events_processed
    assert sim.now == ref.now
    assert sim.deadlocked == ref.deadlocked
    assert sim.deadlock_tasks == ref.deadlock_tasks
    assert ref.events_elided == 0


def test_synthetic_runs_elide():
    elided = 0
    for seed in range(10):
        sim, _trace, _ = _synthetic_run(
            Simulator, seed, _horizons(random.Random(1000 + seed))
        )
        elided += sim.events_elided
    assert elided > 0


# ----------------------------------------------------------------------
# engine differential
# ----------------------------------------------------------------------
def _engine_case(seed):
    rng = random.Random(seed)
    cost = rng.choice([200.0, 1000.0, 4000.0])
    payload = rng.choice([64, 128, 1024])
    kind = rng.choice(["pipeline", "data_parallel", "mixed", "bushy"])
    if kind == "pipeline":
        graph = pipeline(rng.randint(2, 7), cost, payload)
    elif kind == "data_parallel":
        graph = data_parallel(rng.randint(2, 4), cost, payload)
    elif kind == "mixed":
        graph = mixed(rng.randint(2, 3), rng.randint(1, 3), cost, payload)
    else:
        graph = bushy(rng.randint(2, 3), cost, payload)
    queueable = sorted(queueable_indices(graph))
    placement = QueuePlacement.of(
        i for i in queueable if rng.random() < 0.5
    )
    arrivals = None
    overflow = "block"
    if rng.random() < 0.3:
        step = rng.choice([2.0**-18, 2.0**-20, 2.0**-22])
        arrivals = {
            op.index: (k * step for k in itertools.count(1))
            for op in graph.sources
        }
        overflow = rng.choice(["block", "drop"])
    profiler = None
    if rng.random() < 0.6:
        profiler = (
            rng.choice([2.0e-5, 3.0e-5, 1.0e-4]),
            rng.random() < 0.7,
        )
    return dict(
        graph=graph,
        machine=laptop(rng.choice([2, 4, 8])),
        placement=placement,
        scheduler_threads=rng.randint(1, 4),
        queue_capacity=rng.choice([1, 2, 4, 16]),
        arrivals=arrivals,
        overflow=overflow,
    ), profiler


def _engine_run(seed, reference):
    kwargs, profiler_args = _engine_case(seed)
    engine = DesEngine(**kwargs)
    if reference:
        engine.sim = ReferenceSimulator()
    profiler = None
    if profiler_args is not None:
        period_s, sampled = profiler_args
        profiler = engine.attach_profiler(period_s=period_s, sampled=sampled)
    result = engine.run(warmup_s=0.0005, measure_s=0.002)
    profile = (
        profiler.profile(len(kwargs["graph"])) if profiler else None
    )
    return engine, result, profile


@pytest.mark.parametrize("seed", range(40))
def test_engine_matches_reference(seed):
    ref_engine, ref_result, ref_profile = _engine_run(seed, True)
    engine, result, profile = _engine_run(seed, False)
    assert result == ref_result
    assert profile == ref_profile
    assert engine.sim.now == ref_engine.sim.now
    assert ref_engine.sim.events_elided == 0


def test_profiled_engine_elides():
    graph = pipeline(6, 2000.0, 128)
    engine = DesEngine(
        graph, laptop(4), QueuePlacement.of({2, 4}), scheduler_threads=2
    )
    engine.attach_profiler(period_s=1.0e-4, sampled=False)
    engine.run(warmup_s=0.0005, measure_s=0.002)
    assert 0 < engine.sim.events_elided < engine.sim.events_processed


# ----------------------------------------------------------------------
# unit cases
# ----------------------------------------------------------------------
def _recorder(sim, log, name, delays):
    for delay in delays:
        log.append((sim.now, name))
        yield delay
    log.append((sim.now, name))


class TestElisionBoundaries:
    def test_tie_with_heap_top_is_not_elided(self):
        sim = Simulator()
        log = []
        sim.spawn(_recorder(sim, log, "a", [1.0]), name="a")
        sim.spawn(_recorder(sim, log, "b", [1.0]), name="b")
        # a's wake at 1.0 is pushed first, so b's wake ties with the
        # heap top and must queue behind it.
        assert sim.run_until(5.0) == 4
        assert sim.events_elided == 0
        assert log == [(0.0, "a"), (0.0, "b"), (1.0, "a"), (1.0, "b")]

    def test_wake_at_the_horizon_is_elided(self):
        sim = Simulator()
        log = []
        sim.spawn(_recorder(sim, log, "a", [1.0, 1.0, 1.0]), name="a")
        assert sim.run_until(2.0) == 3
        assert sim.events_elided == 2
        assert log == [(0.0, "a"), (1.0, "a"), (2.0, "a")]
        assert sim.now == 2.0

    def test_wake_past_the_horizon_resumes_next_call(self):
        sim = Simulator()
        log = []
        sim.spawn(_recorder(sim, log, "a", [1.0, 1.0, 1.0]), name="a")
        sim.run_until(2.0)
        assert sim.pending_events == 1
        assert sim.run_until(3.0) == 1
        assert log[-1] == (3.0, "a")
        assert sim.events_processed == 4

    def test_wake_at_the_horizon_via_wake_at(self):
        sim = Simulator()
        log = []

        def proc():
            yield WakeAt(2.0)
            log.append(sim.now)
            yield WakeAt(2.5)
            log.append(sim.now)

        sim.spawn(proc())
        assert sim.run_until(2.0) == 2
        assert log == [2.0]
        assert sim.events_elided == 1
        sim.run_until(3.0)
        assert log == [2.0, 2.5]
        assert sim.events_elided == 1


class TestNanGuards:
    def test_nan_delay_rejected(self):
        sim = Simulator()

        def proc():
            yield math.nan

        sim.spawn(proc())
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_nan_wake_rejected(self):
        sim = Simulator()

        def proc():
            yield WakeAt(math.nan)

        sim.spawn(proc())
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_nan_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(math.nan)

    def test_nan_run_until_rejected(self):
        with pytest.raises(ValueError):
            Simulator().run_until(math.nan)
