"""AdaptationBackend: every substrate runs through the one period loop."""

from __future__ import annotations

import math

import pytest

from repro.bench import cache
from repro.des.adaptation import DesAdaptationRunner
from repro.graph import pipeline
from repro.job.executor import JobAdaptationRunner
from repro.job.graph import build_job_graph
from repro.perfmodel import laptop
from repro.runtime import (
    AdaptationExecutor,
    ElasticityConfig,
    ProcessingElement,
    RuntimeConfig,
    run_periods,
)
from repro.runtime.backend import AdaptationBackend, BackendResult
from repro.scenarios.schema import PeSpec

SUBSTRATES = ["des", "perfmodel", "job"]


@pytest.fixture
def pipe4():
    return pipeline(4, cost_flops=1000.0, payload_bytes=128)


def _job(pipe4):
    return build_job_graph(
        pipe4,
        (
            PeSpec(name="a", operators=("src", "op0", "op1")),
            PeSpec(name="b", operators=("op2", "op3", "snk")),
        ),
    )


def _make(substrate, pipe4, hub=None):
    if substrate == "des":
        return DesAdaptationRunner(
            pipe4,
            laptop(4),
            RuntimeConfig(seed=3),
            warmup_s=0.001,
            measure_s=0.004,
            obs=hub,
        )
    if substrate == "job":
        return JobAdaptationRunner(
            _job(pipe4),
            laptop(4),
            RuntimeConfig(seed=3),
            warmup_s=0.001,
            measure_s=0.004,
            obs=hub,
        )
    pe = ProcessingElement(pipe4, laptop(4), RuntimeConfig(seed=3))
    return AdaptationExecutor(pe, obs=hub)


def test_des_runner_is_a_backend(pipe4):
    assert isinstance(_make("des", pipe4), AdaptationBackend)


def test_job_runner_is_a_backend(pipe4):
    assert isinstance(_make("job", pipe4), AdaptationBackend)


def test_perfmodel_executor_is_a_backend(pipe4):
    assert isinstance(_make("perfmodel", pipe4), AdaptationBackend)


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_backends_return_conforming_results(substrate, pipe4):
    cache.clear()
    result = run_periods(
        _make(substrate, pipe4), 4, stop_after_stable_periods=None
    )
    assert isinstance(result, BackendResult)
    assert result.final_threads >= 1
    assert result.final_n_queues >= 0
    assert result.converged_throughput > 0
    assert len(result.trace.observations) == 4


def test_make_backend_dispatch():
    """The scenario-level factory picks the right substrate."""
    from repro.scenarios import compile_scenario, load_scenario
    from repro.scenarios.run import make_backend

    def backend(path):
        return make_backend(compile_scenario(load_scenario(path)))

    des = backend("scenarios/pipeline-smoke.yaml")
    job = backend("scenarios/fig07-2pe-passthrough.yaml")
    perfmodel = backend("scenarios/power8-data-parallel.yaml")
    assert isinstance(des, DesAdaptationRunner)
    assert isinstance(job, JobAdaptationRunner)
    assert isinstance(perfmodel, AdaptationExecutor)
    for b in (des, job, perfmodel):
        assert isinstance(b, AdaptationBackend)


# ----------------------------------------------------------------------
# horizons are validated once, in the driver
# ----------------------------------------------------------------------
@pytest.mark.parametrize("substrate", SUBSTRATES)
@pytest.mark.parametrize(
    "max_periods, stop_after",
    [
        (0, None),
        (-3, 8),
        (2.0, None),
        (True, None),
        ("4", None),
        (None, 8),
        (4, 0),
        (4, -1),
    ],
)
def test_run_periods_rejects_bad_horizons(
    substrate, max_periods, stop_after, pipe4
):
    with pytest.raises(ValueError):
        run_periods(_make(substrate, pipe4), max_periods, stop_after)


@pytest.mark.parametrize(
    "call",
    [
        lambda r: r.run(max_periods=0),
        lambda r: r.run(max_periods=4, stop_after_stable_periods=0),
    ],
    ids=["max_periods=0", "stop_after=0"],
)
def test_des_run_rejects_bad_horizons(call, pipe4):
    with pytest.raises(ValueError):
        call(_make("des", pipe4))


@pytest.mark.parametrize(
    "duration_s", [math.nan, math.inf, -math.inf, 0.0, -5.0]
)
@pytest.mark.parametrize("stop_after", [None, 8])
def test_executor_run_rejects_bad_durations(duration_s, stop_after, pipe4):
    with pytest.raises(ValueError):
        _make("perfmodel", pipe4).run(duration_s, stop_after)


# ----------------------------------------------------------------------
# the perfmodel clock: k periods of virtual time
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "duration_s, period_s, periods",
    [
        (12.0, 5.0, 3),
        (10.0, 5.0, 2),
        (10.1, 5.0, 3),
        (7.0, 2.5, 3),
        (7.5, 2.5, 3),
        (1.0, 30.0, 1),
        (95.0, 10.0, 10),
        (100.0, 20.0, 5),
        (61.0, 30.0, 3),
    ],
)
def test_executor_run_counts_and_stamps_periods(
    duration_s, period_s, periods, pipe4
):
    config = RuntimeConfig(
        seed=3, elasticity=ElasticityConfig(adaptation_period_s=period_s)
    )
    executor = AdaptationExecutor(ProcessingElement(pipe4, laptop(4), config))
    result = executor.run(duration_s)
    stamps = [o.time_s for o in result.trace.observations]
    assert stamps == [k * period_s for k in range(1, periods + 1)]


# ----------------------------------------------------------------------
# warm-start conformance: one spec, three substrates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_every_backend_accepts_warm_start_hints(substrate, pipe4, tmp_path):
    """The same WarmStartSpec drives every substrate through the
    protocol surface, and the warm entry shows up in the decisions."""
    from repro.core.warmstart import WarmStartSpec
    from repro.obs.hub import ObservabilityHub

    cache.clear()
    hub = ObservabilityHub()
    runner = _make(substrate, pipe4, hub=hub)
    runner.set_warm_start(
        WarmStartSpec(mode="model", store_dir=str(tmp_path))
    )
    result = run_periods(runner, 4, stop_after_stable_periods=None)
    assert len(result.trace.observations) >= 1
    warm_rules = {
        d.rule for d in hub.decisions() if d.rule.startswith("F7-WARM")
    }
    assert "F7-WARM-START" in warm_rules


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_disabled_warm_start_is_byte_identical(substrate, pipe4):
    """mode="off" (and a cleared session) must leave the decision log
    byte-identical to a runner that never heard of warm starts."""
    from repro.core.warmstart import WarmStartSpec
    from repro.obs.hub import ObservabilityHub

    def decisions(**kw):
        cache.clear()
        hub = ObservabilityHub()
        runner = _make(substrate, pipe4, hub=hub)
        spec = kw.get("spec")
        if spec is not None:
            runner.set_warm_start(spec)
        run_periods(runner, 5, stop_after_stable_periods=None)
        return tuple(
            (d.scope, d.rule, d.set_threads, d.set_n_queues)
            for d in hub.decisions()
        )

    stock = decisions()
    assert decisions(spec=WarmStartSpec(mode="off")) == stock
    assert decisions(spec=None) == stock


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_phase_store_round_trips_through_every_backend(
    substrate, pipe4, tmp_path
):
    """history mode: a converged run populates the store and a fresh
    runner snaps back instead of re-exploring."""
    from repro.core.warmstart import WarmStartSpec
    from repro.obs.hub import ObservabilityHub

    spec = WarmStartSpec(mode="auto", store_dir=str(tmp_path))

    def run_once():
        cache.clear()
        hub = ObservabilityHub()
        runner = _make(substrate, pipe4, hub=hub)
        runner.set_warm_start(spec)
        result = run_periods(runner, 60, stop_after_stable_periods=8)
        return result, hub

    first, _ = run_once()
    second, hub2 = run_once()
    rules2 = {d.rule for d in hub2.decisions()}
    assert "F7-WARM-SNAP" in rules2
    assert len(second.trace.observations) <= len(
        first.trace.observations
    )
