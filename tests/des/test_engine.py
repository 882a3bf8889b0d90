"""Tests for the tuple-level DES engine, including cross-validation
against the analytical performance model."""

from __future__ import annotations

import pytest

from repro.des import DesEngine, measure_throughput
from repro.graph import GraphBuilder, data_parallel, pipeline
from repro.perfmodel import PerformanceModel, laptop
from repro.runtime import QueuePlacement


@pytest.fixture
def machine():
    return laptop(4)


def _even_placement(graph, k):
    eligible = [op.index for op in graph if not op.is_source]
    if k == 0:
        return QueuePlacement.empty()
    step = len(eligible) / k
    return QueuePlacement.of(eligible[int(i * step)] for i in range(k))


class TestBasicExecution:
    def test_manual_chain_produces_tuples(self, machine):
        g = pipeline(5, cost_flops=1000.0, payload_bytes=64)
        result = measure_throughput(
            g, machine, QueuePlacement.empty(), 0,
            warmup_s=0.001, measure_s=0.005,
        )
        assert result.sink_tuples_per_s > 0
        assert result.source_tuples_per_s > 0

    def test_rejects_negative_threads(self, machine):
        g = pipeline(3)
        with pytest.raises(ValueError):
            DesEngine(g, machine, QueuePlacement.empty(), -1)

    def test_double_start_rejected(self, machine):
        g = pipeline(3)
        engine = DesEngine(g, machine, QueuePlacement.empty(), 0)
        engine.start()
        with pytest.raises(RuntimeError):
            engine.start()

    def test_sink_rate_matches_source_rate_for_chain(self, machine):
        g = pipeline(5, cost_flops=1000.0)
        result = measure_throughput(
            g, machine, QueuePlacement.empty(), 0,
            warmup_s=0.001, measure_s=0.01,
        )
        assert result.sink_tuples_per_s == pytest.approx(
            result.source_tuples_per_s, rel=0.05
        )

    def test_queues_without_threads_stall_downstream(self, machine):
        g = pipeline(5, cost_flops=1000.0)
        mid = g.by_name("op2").index
        result = measure_throughput(
            g, machine, QueuePlacement.of([mid]), 0,
            warmup_s=0.001, measure_s=0.005,
        )
        # No scheduler threads: the queue fills; the producer must
        # drain it itself via the backpressure help path, so tuples
        # still flow (no deadlock) but bounded by one thread.
        assert result.sink_tuples_per_s > 0


class TestParallelism:
    def test_pipeline_parallelism_speeds_up(self, machine):
        g = pipeline(8, cost_flops=5000.0, payload_bytes=64)
        manual = measure_throughput(
            g, machine, QueuePlacement.empty(), 0,
            warmup_s=0.002, measure_s=0.01,
        )
        parallel = measure_throughput(
            g, machine, _even_placement(g, 3), 3,
            warmup_s=0.002, measure_s=0.01,
        )
        assert (
            parallel.sink_tuples_per_s > 1.5 * manual.sink_tuples_per_s
        )

    def test_more_threads_than_cores_no_gain(self, machine):
        g = pipeline(8, cost_flops=5000.0, payload_bytes=64)
        placement = _even_placement(g, 8)
        at_cores = measure_throughput(
            g, machine, placement, 3, warmup_s=0.002, measure_s=0.01
        )
        oversub = measure_throughput(
            g, machine, placement, 16, warmup_s=0.002, measure_s=0.01
        )
        assert oversub.sink_tuples_per_s <= 1.2 * at_cores.sink_tuples_per_s


class TestBackpressure:
    def test_no_deadlock_on_full_dynamic_dp(self, machine):
        """All scheduler threads pushing into a full sink queue must not
        deadlock (regression test for the help-on-full path)."""
        g = data_parallel(8, cost_flops=2000.0, payload_bytes=128)
        result = measure_throughput(
            g, machine, QueuePlacement.full(g), 4,
            warmup_s=0.002, measure_s=0.01, queue_capacity=4,
        )
        assert result.sink_tuples_per_s > 0

    def test_queue_occupancy_bounded(self, machine):
        g = pipeline(6, cost_flops=100.0)
        placement = _even_placement(g, 3)
        result = measure_throughput(
            g, machine, placement, 2,
            warmup_s=0.002, measure_s=0.01, queue_capacity=8,
        )
        assert all(occ <= 8 for _idx, occ in result.queue_occupancy)


class TestSelectivity:
    def test_selectivity_amplifies_sink_rate(self, machine):
        b = GraphBuilder("sel", payload_bytes=64)
        src = b.add_source("src", cost_flops=100.0)
        tok = b.add_operator("tok", cost_flops=500.0, selectivity=3.0)
        snk = b.add_sink("snk", cost_flops=10.0, uses_lock=False)
        b.chain(src, tok, snk)
        g = b.build()
        result = measure_throughput(
            g, machine, QueuePlacement.empty(), 0,
            warmup_s=0.001, measure_s=0.01,
        )
        assert result.sink_tuples_per_s == pytest.approx(
            3.0 * result.source_tuples_per_s, rel=0.05
        )


class TestModelCrossValidation:
    """The DES and the analytical model must agree qualitatively."""

    @pytest.mark.parametrize("k,threads", [(0, 0), (2, 2), (4, 3)])
    def test_chain_within_factor_two(self, machine, k, threads):
        g = pipeline(8, cost_flops=1000.0, payload_bytes=256)
        placement = _even_placement(g, k)
        des = measure_throughput(
            g, machine, placement, threads,
            warmup_s=0.005, measure_s=0.02,
        )
        model = PerformanceModel(g, machine).sink_throughput(
            placement, threads
        )
        ratio = des.sink_tuples_per_s / model
        assert 0.5 < ratio < 2.0

    def test_configuration_ordering_preserved(self, machine):
        """If the model says A >> B, the DES must agree on direction."""
        g = pipeline(8, cost_flops=5000.0, payload_bytes=64)
        pm = PerformanceModel(g, machine)
        a = (_even_placement(g, 3), 3)
        b = (QueuePlacement.empty(), 0)
        model_ratio = pm.sink_throughput(*a) / pm.sink_throughput(*b)
        des_a = measure_throughput(
            g, machine, a[0], a[1], warmup_s=0.002, measure_s=0.01
        )
        des_b = measure_throughput(
            g, machine, b[0], b[1], warmup_s=0.002, measure_s=0.01
        )
        des_ratio = des_a.sink_tuples_per_s / des_b.sink_tuples_per_s
        assert model_ratio > 1.5
        assert des_ratio > 1.5

    def test_sink_contention_direction(self, machine):
        """Queuing the locked sink relieves contention in both
        substrates (the Fig. 10 mechanism)."""
        g = data_parallel(6, cost_flops=3000.0, payload_bytes=64)
        workers = [
            op.index for op in g if op.name.startswith("worker")
        ]
        snk = g.by_name("snk").index
        without_sink = QueuePlacement.of(workers)
        with_sink = QueuePlacement.of(workers + [snk])
        des_without = measure_throughput(
            g, machine, without_sink, 3, warmup_s=0.005, measure_s=0.02
        )
        des_with = measure_throughput(
            g, machine, with_sink, 3, warmup_s=0.005, measure_s=0.02
        )
        # Queued sink must not be significantly slower than the
        # contended inline sink.
        assert (
            des_with.sink_tuples_per_s
            > 0.7 * des_without.sink_tuples_per_s
        )


class TestWindowValidation:
    """Windows and the profiler period are validated up front: a zero
    period would never let simulated time advance, and a NaN or
    negative window measures nothing."""

    def _engine(self, machine):
        g = pipeline(3, cost_flops=1000.0)
        return DesEngine(g, machine, QueuePlacement.empty(), 0)

    @pytest.mark.parametrize(
        "period_s", [0.0, -1.0e-4, float("nan"), float("inf")]
    )
    def test_rejects_bad_profiler_period(self, machine, period_s):
        with pytest.raises(ValueError, match="period_s"):
            self._engine(machine).attach_profiler(period_s=period_s)

    @pytest.mark.parametrize(
        "warmup_s, measure_s",
        [
            (0.0001, float("nan")),
            (0.0001, -0.001),
            (0.0001, 0.0),
            (0.0001, float("inf")),
            (float("nan"), 0.001),
            (-0.001, 0.001),
            (float("inf"), 0.001),
        ],
    )
    def test_rejects_bad_window(self, machine, warmup_s, measure_s):
        with pytest.raises(ValueError, match="warmup_s >= 0"):
            self._engine(machine).run(warmup_s=warmup_s, measure_s=measure_s)

    def test_zero_warmup_is_legal(self, machine):
        result = self._engine(machine).run(warmup_s=0.0, measure_s=0.001)
        assert result.sink_tuples > 0
