"""Tests for region fusion, including rate-conservation properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    FanoutPolicy,
    GraphBuilder,
    data_parallel,
    mixed,
    pipeline,
)
from repro.graph.analysis import queueable_indices
from repro.runtime import QueuePlacement, decompose


class TestChainDecomposition:
    def test_empty_placement_single_region(self, chain10):
        d = decompose(chain10, QueuePlacement.empty())
        assert d.n_regions == 1
        region = d.regions[0]
        assert region.is_source_region
        assert len(region.operators) == len(chain10)

    def test_full_placement_one_region_per_operator(self, chain10):
        d = decompose(chain10, QueuePlacement.full(chain10))
        assert d.n_regions == len(chain10)
        for region in d.dynamic_regions:
            assert len(region.operators) == 1

    def test_single_queue_splits_chain(self, chain10):
        mid = chain10.by_name("op5").index
        d = decompose(chain10, QueuePlacement.of([mid]))
        assert d.n_regions == 2
        src_region = d.source_regions[0]
        dyn_region = d.dynamic_regions[0]
        assert mid not in src_region.operators
        assert dyn_region.entry == mid
        # Chain: src..op4 in source region, op5..snk in dynamic region.
        assert len(src_region.operators) + len(dyn_region.operators) == len(
            chain10
        )

    def test_push_rates_cross_queue_boundary(self, chain10):
        mid = chain10.by_name("op5").index
        d = decompose(chain10, QueuePlacement.of([mid]))
        src_region = d.source_regions[0]
        assert src_region.push_rates == ((mid, pytest.approx(1.0)),)

    def test_dynamic_region_entry_rate(self, chain10):
        mid = chain10.by_name("op5").index
        d = decompose(chain10, QueuePlacement.of([mid]))
        assert d.dynamic_regions[0].entry_rate == pytest.approx(1.0)


class TestFanOutDecomposition:
    def test_broadcast_operator_in_two_regions(self, diamond):
        # Queue on b only: c and d stay with the source region; d also
        # reachable from b's region.
        b_idx = diamond.by_name("b").index
        d_idx = diamond.by_name("d").index
        d = decompose(diamond, QueuePlacement.of([b_idx]))
        assert d.threads_reaching(d_idx) == 2

    def test_rates_split_between_regions(self, diamond):
        b_idx = diamond.by_name("b").index
        d_idx = diamond.by_name("d").index
        decomp = decompose(diamond, QueuePlacement.of([b_idx]))
        total = sum(r.op_rate(d_idx) for r in decomp.regions)
        # d receives rate 2 overall (from b and c, broadcast).
        assert total == pytest.approx(2.0)

    def test_data_parallel_sink_reached_by_all_workers(self, dp8):
        workers = [
            op.index for op in dp8 if op.name.startswith("worker")
        ]
        snk = dp8.by_name("snk").index
        d = decompose(dp8, QueuePlacement.of(workers))
        assert d.threads_reaching(snk) == len(workers)


class TestDecompositionAccessors:
    def test_region_of_entry(self, chain10):
        mid = chain10.by_name("op5").index
        d = decompose(chain10, QueuePlacement.of([mid]))
        assert d.region_of_entry(mid).entry == mid
        with pytest.raises(KeyError):
            d.region_of_entry(999)

    def test_operators_per_region(self, chain10):
        d = decompose(chain10, QueuePlacement.empty())
        per = d.operators_per_region()
        assert len(per) == 1
        (members,) = per.values()
        assert len(members) == len(chain10)

    def test_op_rate_zero_for_missing(self, chain10):
        d = decompose(chain10, QueuePlacement.empty())
        assert d.regions[0].op_rate(999) == 0.0


def _random_placement(graph, rng, fraction):
    eligible = list(queueable_indices(graph))
    k = int(fraction * len(eligible))
    chosen = rng.choice(eligible, size=k, replace=False) if k else []
    return QueuePlacement.of(int(i) for i in chosen)


class TestRateConservation:
    """Region-local rates must always sum to the graph's global rates."""

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 1.0])
    def test_pipeline_conservation(self, fraction, rng):
        g = pipeline(30)
        placement = _random_placement(g, rng, fraction)
        self._assert_conserved(g, placement)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_mixed_conservation(self, fraction, rng):
        g = mixed(4, 8)
        placement = _random_placement(g, rng, fraction)
        self._assert_conserved(g, placement)

    def test_data_parallel_conservation(self, dp8, rng):
        placement = _random_placement(dp8, rng, 0.5)
        self._assert_conserved(dp8, placement)

    @staticmethod
    def _assert_conserved(graph, placement):
        decomp = decompose(graph, placement)
        global_rates = graph.arrival_rates()
        summed = {op.index: 0.0 for op in graph}
        for region in decomp.regions:
            for idx, rate in region.op_rates:
                summed[idx] += rate
        for idx, expected in global_rates.items():
            assert summed[idx] == pytest.approx(expected, abs=1e-9), (
                f"operator {idx}: regions sum to {summed[idx]}, "
                f"global rate {expected}"
            )

    @staticmethod
    def _assert_push_consistency(graph, placement):
        """Push rates into each queue equal the queue's entry rate."""
        decomp = decompose(graph, placement)
        pushes = {}
        for region in decomp.regions:
            for queue_op, rate in region.push_rates:
                pushes[queue_op] = pushes.get(queue_op, 0.0) + rate
        for region in decomp.dynamic_regions:
            assert pushes.get(region.entry, 0.0) == pytest.approx(
                region.entry_rate, abs=1e-9
            )

    @given(
        seed=st.integers(0, 10_000),
        n_ops=st.integers(2, 40),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_conservation_random_chain(
        self, seed, n_ops, fraction
    ):
        g = pipeline(n_ops)
        rng = np.random.default_rng(seed)
        placement = _random_placement(g, rng, fraction)
        self._assert_conserved(g, placement)
        self._assert_push_consistency(g, placement)

    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(1, 8),
        depth=st.integers(1, 6),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_conservation_random_mixed(
        self, seed, width, depth, fraction
    ):
        g = mixed(width, depth)
        rng = np.random.default_rng(seed)
        placement = _random_placement(g, rng, fraction)
        self._assert_conserved(g, placement)
        self._assert_push_consistency(g, placement)


class TestSelectivityRegions:
    def test_selectivity_amplifies_downstream_rates(self):
        b = GraphBuilder("sel")
        src = b.add_source("src")
        tok = b.add_operator("tok", selectivity=5.0)
        work = b.add_operator("work")
        snk = b.add_sink("snk")
        b.chain(src, tok, work, snk)
        g = b.build()
        d = decompose(g, QueuePlacement.of([work.index]))
        src_region = d.source_regions[0]
        assert src_region.push_rates == ((work.index, pytest.approx(5.0)),)
        dyn = d.dynamic_regions[0]
        assert dyn.entry_rate == pytest.approx(5.0)

    def test_split_fanout_partial_queueing(self):
        b = GraphBuilder("partial")
        src = b.add_source("src", fanout=FanoutPolicy.SPLIT)
        w1 = b.add_operator("w1")
        w2 = b.add_operator("w2")
        snk = b.add_sink("snk", uses_lock=False)
        b.fan_out(src, [w1, w2])
        b.fan_in([w1, w2], snk)
        g = b.build()
        # Queue only w1: w2 and snk stay in the source region.
        d = decompose(g, QueuePlacement.of([w1.index]))
        src_region = d.source_regions[0]
        assert src_region.op_rate(w2.index) == pytest.approx(0.5)
        assert src_region.push_rates == ((w1.index, pytest.approx(0.5)),)
        dyn = d.dynamic_regions[0]
        assert dyn.op_rate(snk.index) == pytest.approx(0.5)

    @pytest.mark.parametrize("fan_out", [False, True])
    @pytest.mark.parametrize("queue_work", [False, True])
    def test_zero_selectivity_stops_the_rates(self, queue_work, fan_out):
        """A -0.0 selectivity gives +0.0 rates downstream, as the fan-in
        sum 0.0 + rate * -0.0 does, and operators no tuple reaches count
        no threads."""
        b = GraphBuilder("dead")
        src = b.add_source("src")
        drop = b.add_operator("drop", selectivity=-0.0)
        work = b.add_operator("work", uses_lock=True)
        snk = b.add_sink("snk")
        b.chain(src, drop, work, snk)
        if fan_out:
            side = b.add_operator("side")
            b.connect(drop, side).connect(side, snk)
        g = b.build()
        queued = [work.index] if queue_work else []
        d = decompose(g, QueuePlacement.of(queued))
        rates = [r for region in d.regions for r in region.rates]
        rates += [r for region in d.regions for _q, r in region.push_rates]
        assert [str(r) for r in rates].count("-0.0") == 0
        assert d.threads_reaching(drop.index) == 1
        assert d.threads_reaching(work.index) == 0
        assert d.threads_reaching(snk.index) == 0


class TestRegionTable:
    """The cells behind ``regions``: layout, views and read-only-ness."""

    @staticmethod
    def _row_cells(d, row):
        """Row ``row``'s (key, rate) cells, in table order."""
        mine = d.cell_rows == row
        return list(
            zip(d.cell_keys[mine].tolist(), d.cell_rates[mine].tolist())
        )

    def test_rows_match_region_views(self, diamond):
        b_idx = diamond.by_name("b").index
        d = decompose(diamond, QueuePlacement.of([b_idx]))
        n = len(diamond)
        assert d.heads == tuple(r.entry for r in d.regions)
        for row, region in enumerate(d.regions):
            pop = n if region.is_source_region else n + 1
            assert self._row_cells(d, row) == [
                *region.op_rates,
                (pop, region.entry_rate),
                *((n + 2 + q, rate) for q, rate in region.push_rates),
            ]

    def test_cells_hold_no_padding(self):
        graph = mixed(4, 8)
        placement = QueuePlacement.of(
            op.index for op in graph if op.index % 3 == 1
        )
        d = decompose(graph, placement)
        members = sum(len(r.operators) for r in d.regions)
        pushes = sum(len(r.push_rates) for r in d.regions)
        assert d.n_pushes == pushes
        assert len(d.cell_rows) == members + d.n_regions + pushes
        assert list(d.push_rates) == [
            rate for r in d.regions for _q, rate in r.push_rates
        ]

    def test_cell_keys_mark_members_pops_and_pushes(self, chain10):
        mid = chain10.by_name("op5").index
        d = decompose(chain10, QueuePlacement.of([mid]))
        n = len(chain10)
        # Members by row, then the pops, then the one push.
        assert d.cell_rows.tolist() == (
            [0] * mid + [1] * (n - mid) + [0, 1, 0]
        )
        assert d.cell_keys.tolist() == (
            list(range(n)) + [n, n + 1, n + 2 + mid]
        )
        assert d.n_pushes == 1

    def test_arrays_are_read_only(self, dp8):
        workers = [op.index for op in dp8 if op.name.startswith("worker")]
        d = decompose(dp8, QueuePlacement.of(workers[:3]))
        for array in (d.cell_rows, d.cell_keys, d.cell_rates, d.push_rates):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_walked_members_extend_their_rows(self, dp8):
        # No queue: the source region walks on through every worker.
        d = decompose(dp8, QueuePlacement.empty())
        (region,) = d.regions
        assert len(region.operators) == len(dp8)
        assert self._row_cells(d, 0)[: len(dp8)] == list(region.op_rates)
        assert d.n_pushes == 0
