"""End-to-end properties of an observed elastic run.

The contract under test is the one docs/OBSERVABILITY.md promises:
one coordinator Decision per adaptation period, a closed rule
vocabulary, every applied configuration change attributable to the
decision immediately preceding it — and byte-identical behaviour when
the hub is detached.  The causal check runs on every substrate: a
perfmodel run, a single-PE DES run, a multi-PE job run in-process and
the same kind of job with its PEs stepped in pool workers.
"""

from __future__ import annotations

import pytest

from repro.bench import cache
from repro.graph.topologies import pipeline
from repro.obs import VALID_RULES, Decision, ObservabilityHub
from repro.perfmodel.machine import laptop
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import run_elastic
from repro.runtime.pe import ProcessingElement
from repro.scenarios.compile import compile_scenario
from repro.scenarios.run import make_backend
from repro.scenarios.zoo import load_named


def _pe(seed: int = 0) -> ProcessingElement:
    graph = pipeline(20, cost_flops=100.0, payload_bytes=256)
    machine = laptop(cores=8)
    return ProcessingElement(
        graph, machine, RuntimeConfig(cores=8, seed=seed)
    )


@pytest.fixture(scope="module")
def observed_run():
    hub = ObservabilityHub()
    result = run_elastic(_pe(), duration_s=2_000.0, obs=hub)
    return hub, result


class TestDecisionPerPeriod:
    def test_exactly_one_decision_per_adaptation_period(self, observed_run):
        hub, _result = observed_run
        observations = hub.events("observation")
        decisions = hub.decisions()
        assert len(observations) > 0
        assert len(decisions) == len(observations)
        # Periods are consecutive, one decision each.
        assert [d.period for d in decisions] == list(range(len(decisions)))

    def test_every_rule_is_in_the_closed_vocabulary(self, observed_run):
        hub, _result = observed_run
        for decision in hub.decisions():
            assert decision.rule in VALID_RULES

    def test_metrics_agree_with_the_log(self, observed_run):
        hub, _result = observed_run
        reg = hub.registry
        assert reg.get("loop.decisions").value == len(hub.decisions())
        assert reg.get("loop.periods").value == len(
            hub.events("observation")
        )
        assert reg.get("loop.thread_changes").value == len(
            hub.events("thread_change")
        )


def assert_total_order(records) -> None:
    """Sequence numbers are strictly increasing in log order."""
    seqs = [r.seq for r in records]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs))


def assert_causal(records) -> None:
    """The causal invariant of the unified log.

    Sequence numbers are a total order; every decision follows an
    observation of its own period time; every thread or placement
    change follows a decision of the same time whose ``set_threads`` /
    ``set_n_queues`` it applies.
    """
    assert_total_order(records)
    observed_at = None
    decision = None
    for record in records:
        if isinstance(record, Decision):
            assert record.time_s == observed_at, f"seq {record.seq}"
            decision = record
        elif record.kind == "observation":
            observed_at = record.time_s
        else:
            assert decision is not None, f"change at seq {record.seq}"
            assert decision.time_s == record.time_s
            if record.kind == "thread_change":
                assert decision.set_threads == record.data.new_threads
            else:
                assert record.kind == "placement_change"
                assert decision.set_n_queues == record.data.new_n_queues


def _scenario_run(name, jobs=1):
    """A zoo scenario on its declared substrate, with a fresh hub and
    a cold memo cache."""
    cache.clear()
    compiled = compile_scenario(load_named(name))
    hub = ObservabilityHub()
    runner = make_backend(compiled, obs=hub, jobs=jobs, warm_start="off")
    spec = compiled.scenario.run
    runner.run(
        max_periods=spec.max_periods,
        stop_after_stable_periods=spec.stop_after_stable_periods,
    )
    return runner, hub


@pytest.fixture(scope="module")
def des_run():
    return _scenario_run("fig07-pipeline-saturated")


@pytest.fixture(scope="module")
def job_run():
    return _scenario_run("multi-pe-sink-contention", jobs=1)


@pytest.fixture(scope="module")
def pooled_job_run():
    return _scenario_run("fig07-2pe-passthrough", jobs=2)


class TestCausalOrdering:
    def test_every_change_is_preceded_by_its_decision(self, observed_run):
        hub, _result = observed_run
        assert hub.events("thread_change")
        assert_causal(hub.records())

    def test_sequence_numbers_are_total_order(
        self, observed_run, des_run, job_run, pooled_job_run
    ):
        hubs = [observed_run[0]] + [
            hub for _runner, hub in (des_run, job_run, pooled_job_run)
        ]
        for hub in hubs:
            assert_total_order(hub.records())

    def test_single_pe_des_run(self, des_run):
        runner, hub = des_run
        assert hub.events("thread_change") and hub.events("placement_change")
        assert_causal(hub.records())
        # One observation and one decision per period, stamped with
        # the period index and the period's end on the virtual clock.
        period_s = runner.config.elasticity.adaptation_period_s
        observations = hub.events("observation")
        decisions = hub.decisions()
        assert len(observations) == len(decisions) == len(
            runner.trace.observations
        )
        for k, (obs, d) in enumerate(zip(observations, decisions), 1):
            assert obs.time_s == d.time_s == k * period_s
            assert d.period == k - 1

    def test_job_run(self, job_run):
        runner, hub = job_run
        assert runner._pe_results is None  # stepped in-process
        assert hub.events("thread_change")
        assert_causal(hub.records())

    def test_pooled_job_run(self, pooled_job_run):
        runner, hub = pooled_job_run
        assert runner._pe_results is not None  # stepped in pool workers
        assert hub.events("thread_change")
        assert_causal(hub.records())

    def test_job_records_carry_the_job_period(self, job_run):
        runner, hub = job_run
        period_s = runner.config.elasticity.adaptation_period_s
        for d in hub.decisions():
            assert d.time_s == (d.period + 1) * period_s
        per_period = len(runner.job.pes)
        observations = hub.events("observation")
        assert len(observations) == per_period * len(runner.trace.observations)


class TestDetachedIdentity:
    def test_observed_and_detached_runs_are_identical(self):
        plain = run_elastic(_pe(seed=3), duration_s=1_000.0)
        observed = run_elastic(
            _pe(seed=3), duration_s=1_000.0, obs=ObservabilityHub()
        )
        assert plain.final_threads == observed.final_threads
        assert plain.final_n_queues == observed.final_n_queues
        assert (
            plain.converged_throughput == observed.converged_throughput
        )
        assert plain.trace.observations == observed.trace.observations
        assert plain.trace.thread_changes == observed.trace.thread_changes
        assert (
            plain.trace.placement_changes
            == observed.trace.placement_changes
        )
