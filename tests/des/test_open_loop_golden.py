"""Golden byte-identity fixture for the DES ingress and help paths.

The fixture pins, bit for bit, the :class:`DesResult` of single
measurement windows on the open-loop burst scenarios (drop, block and
batched channels), the Poisson underload scenario and two closed-loop
scenarios whose saturated sources exercise the backpressure help path
(the fig07 pipeline, and a fan into a locked sink), each with the
sampled profiler attached and detached, together with the profile
counts the attached profiler collected.  It also pins the decision
logs of every open-loop zoo scenario and of the multi-PE locked-sink
scenario, whose sink PE runs most sink tuples on the help path.

``events_processed`` is recorded but not compared for equality: event
coalescing may lower it without moving any measured number.  Each
window pins two counts: ``events_ceiling``, taken after the kernel's
resumption elision, which no window may exceed, and
``events_processed``, taken before it, which the overflow windows must
stay strictly below.  Regenerating keeps the latter.

Regenerate (only when an engine change is *meant* to move numbers)::

    PYTHONPATH=src python tests/des/test_open_loop_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.bench import cache
from repro.des.engine import DesEngine
from repro.obs import ObservabilityHub
from repro.runtime.queues import QueuePlacement
from repro.scenarios import find_scenario, load_compiled, run_scenario
from repro.scenarios.zoo import scenario_files

FIXTURE = Path(__file__).with_name("open_loop_golden.json")

# Scenario -> (queued operators, scheduler threads) configurations.
WINDOWS = {
    "onoff-burst-overflow": (((1,), 2), ((1, 2, 3), 3), ((2,), 1)),
    "onoff-burst-block": (((1,), 2), ((1, 2, 3), 3), ((2,), 1)),
    "onoff-burst-batched": (((1,), 2), ((1, 2, 3), 3), ((2,), 1)),
    "poisson-underload": (((1,), 2), ((1, 2, 3, 4, 5, 6, 7), 3)),
    "fig07-pipeline-saturated": (
        ((2, 5), 2),
        ((1, 2, 3, 4, 5, 6, 7), 4),
        ((4,), 1),
        ((1, 3, 5, 7), 0),
    ),
    # Op 1 is the locked sink; with no scheduler thread every sink
    # tuple is run inline by a backpressured producer.
    "data-parallel-fan": (
        ((1,), 0),
        ((1,), 2),
        ((1, 2, 3, 4, 5, 6, 7, 8, 9), 3),
    ),
}
# Window start times on the scenario clock: an ON edge, mid-cycle and a
# late phase of the 2 ms / 2 ms envelope.
OPEN_LOOP_T0 = (0.0, 0.013, 1.2345)
PROFILER_SAMPLES = 400.0
OVERFLOW = "onoff-burst-overflow"
LOCKED_SINK_JOB = "multi-pe-sink-contention"


def _window_keys(names=None):
    for name, configs in WINDOWS.items():
        if names is not None and name not in names:
            continue
        compiled = load_compiled(find_scenario(name, None))
        t0s = OPEN_LOOP_T0 if compiled.open_loop else (None,)
        for queued, threads in configs:
            for t0 in t0s:
                for profiled in (False, True):
                    yield name, compiled, queued, threads, t0, profiled


def _run_window(compiled, queued, threads, t0, profiled, obs=None):
    run = compiled.scenario.run
    engine = DesEngine(
        compiled.graph,
        compiled.machine,
        QueuePlacement.of(queued),
        threads,
        queue_capacity=run.queue_capacity,
        arrivals=compiled.arrival_streams(t0) if t0 is not None else None,
        overflow=compiled.overflow,
        channel=compiled.channel,
        obs=obs,
    )
    profiler = None
    if profiled:
        profiler = engine.attach_profiler(
            period_s=run.measure_s / PROFILER_SAMPLES, sampled=True
        )
    result = engine.run(warmup_s=run.warmup_s, measure_s=run.measure_s)
    return engine, result, profiler


def _label(name, queued, threads, t0, profiled):
    return f"{name}|q={list(queued)}|t={threads}|t0={t0}|prof={profiled}"


def window_records(names=None):
    out = {}
    for name, compiled, queued, threads, t0, profiled in _window_keys(names):
        engine, result, profiler = _run_window(
            compiled, queued, threads, t0, profiled
        )
        record = {
            key: repr(value)
            for key, value in sorted(dataclasses.asdict(result).items())
        }
        record["events_processed"] = engine.sim.events_processed
        if profiler is not None:
            profile = profiler.profile(len(compiled.graph))
            record["profile_counts"] = [list(c) for c in profile.counts]
            record["profile_samples"] = profiler.samples_taken
        out[_label(name, queued, threads, t0, profiled)] = record
    return out


def _decision_scenarios(names=None):
    for path in scenario_files(None):
        if names is not None and path.stem not in names:
            continue
        compiled = load_compiled(path)
        if compiled.open_loop or path.stem == LOCKED_SINK_JOB:
            yield path.stem, compiled


def decision_records(names=None):
    out = {}
    for name, compiled in _decision_scenarios(names):
        cache.clear()
        hub = ObservabilityHub()
        results = run_scenario(compiled, obs=hub, warm_start="off")
        log = json.dumps(
            [dataclasses.asdict(d) for d in hub.decisions()], sort_keys=True
        ).encode()
        out[name] = {
            "decisions": len(hub.decisions()),
            "log_sha256": hashlib.sha256(log).hexdigest(),
            "results": [
                {
                    "backend": r.backend,
                    "periods": r.periods,
                    "converged_throughput": repr(r.converged_throughput),
                    "final_threads": r.final_threads,
                    "final_n_queues": r.final_n_queues,
                }
                for r in results
            ],
        }
    return out


def current():
    return {"windows": window_records(), "decisions": decision_records()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def windows():
    return window_records()


def _without_events(record):
    return {
        k: v
        for k, v in record.items()
        if k not in ("events_processed", "events_ceiling")
    }


def test_window_set_matches_golden(golden, windows):
    assert sorted(windows) == sorted(golden["windows"])


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_windows_match_golden(golden, windows, name):
    for label, want in golden["windows"].items():
        if label.startswith(name + "|"):
            assert _without_events(windows[label]) == _without_events(
                want
            ), label


def test_events_never_exceed_golden(golden, windows):
    for label, want in golden["windows"].items():
        assert (
            windows[label]["events_processed"] <= want["events_ceiling"]
        ), label


def test_overflow_windows_take_fewer_events(golden, windows):
    # Coalesced drop runs shed the same arrivals with fewer events.
    for label, want in golden["windows"].items():
        if not label.startswith(OVERFLOW + "|"):
            continue
        got = windows[label]
        assert got["offered_tuples_per_s"] == want["offered_tuples_per_s"]
        assert got["dropped_tuples"] == want["dropped_tuples"]
        if float(want["dropped_tuples"]) > 0.0:
            assert got["events_processed"] < want["events_processed"], label


def test_decision_logs_match_golden(golden):
    assert decision_records() == golden["decisions"]


def regenerated():
    """:func:`current`, each window's count also pinned as its ceiling,
    with the fixture's earlier ``events_processed`` kept where it has
    one."""
    fresh = current()
    old = json.loads(FIXTURE.read_text())["windows"] if FIXTURE.exists() else {}
    for label, record in fresh["windows"].items():
        record["events_ceiling"] = record["events_processed"]
        if label in old:
            record["events_processed"] = old[label]["events_processed"]
    return fresh


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(regenerated(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {FIXTURE}")
