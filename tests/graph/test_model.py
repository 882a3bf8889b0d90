"""Tests for the core stream graph model."""

from __future__ import annotations

from itertools import accumulate
from operator import mul

import pytest

from repro.graph import (
    FanoutPolicy,
    GraphBuilder,
    GraphValidationError,
    Operator,
    OperatorKind,
    StreamEdge,
    StreamGraph,
    TupleSpec,
)


def _op(i, name, kind=OperatorKind.FUNCTIONAL, **kw):
    return Operator(index=i, name=name, kind=kind, **kw)


def _simple_ops():
    return [
        _op(0, "src", OperatorKind.SOURCE),
        _op(1, "mid"),
        _op(2, "snk", OperatorKind.SINK, selectivity=0.0),
    ]


def _simple_edges():
    return [StreamEdge(0, 1), StreamEdge(1, 2)]


class TestOperator:
    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            Operator(index=-1, name="x")

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="cost_flops"):
            Operator(index=0, name="x", cost_flops=-1.0)

    def test_negative_selectivity_rejected(self):
        with pytest.raises(ValueError, match="selectivity"):
            Operator(index=0, name="x", selectivity=-0.5)

    def test_with_cost_preserves_everything_else(self):
        op = Operator(
            index=3,
            name="x",
            cost_flops=5.0,
            selectivity=2.0,
            uses_lock=True,
            fanout=FanoutPolicy.SPLIT,
        )
        new = op.with_cost(42.0)
        assert new.cost_flops == 42.0
        assert new.index == 3
        assert new.name == "x"
        assert new.selectivity == 2.0
        assert new.uses_lock is True
        assert new.fanout is FanoutPolicy.SPLIT

    def test_kind_predicates(self):
        assert _op(0, "s", OperatorKind.SOURCE).is_source
        assert _op(0, "k", OperatorKind.SINK).is_sink
        f = _op(0, "f")
        assert not f.is_source and not f.is_sink


class TestStreamEdge:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            StreamEdge(1, 1)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError):
            StreamEdge(-1, 0)


class TestTupleSpec:
    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            TupleSpec(payload_bytes=-1)

    def test_default_payload(self):
        assert TupleSpec().payload_bytes == 128


class TestGraphValidation:
    def test_valid_graph_builds(self):
        g = StreamGraph(_simple_ops(), _simple_edges())
        assert len(g) == 3

    def test_non_dense_indices_rejected(self):
        ops = [
            _op(0, "src", OperatorKind.SOURCE),
            _op(2, "snk", OperatorKind.SINK),
        ]
        with pytest.raises(GraphValidationError, match="dense"):
            StreamGraph(ops, [])

    def test_duplicate_names_rejected(self):
        ops = [
            _op(0, "x", OperatorKind.SOURCE),
            _op(1, "x", OperatorKind.SINK),
        ]
        with pytest.raises(GraphValidationError, match="duplicate"):
            StreamGraph(ops, [StreamEdge(0, 1)])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(GraphValidationError, match="unknown"):
            StreamGraph(_simple_ops(), [StreamEdge(0, 9)])

    def test_cycle_rejected(self):
        ops = _simple_ops() + [_op(3, "loop")]
        edges = [
            StreamEdge(0, 1),
            StreamEdge(1, 3),
            StreamEdge(3, 1),
            StreamEdge(1, 2),
        ]
        with pytest.raises(GraphValidationError, match="cycle"):
            StreamGraph(ops, edges)

    def test_source_with_inputs_rejected(self):
        ops = _simple_ops()
        edges = _simple_edges() + [StreamEdge(1, 0)]
        with pytest.raises(GraphValidationError):
            StreamGraph(ops, edges)

    def test_sink_with_outputs_rejected(self):
        ops = _simple_ops() + [_op(3, "after")]
        edges = _simple_edges() + [StreamEdge(2, 3)]
        with pytest.raises(GraphValidationError):
            StreamGraph(ops, edges)

    def test_orphan_functional_operator_rejected(self):
        ops = _simple_ops() + [_op(3, "orphan")]
        edges = _simple_edges() + [StreamEdge(3, 2)]
        with pytest.raises(GraphValidationError, match="no incoming"):
            StreamGraph(ops, edges)

    def test_graph_without_source_rejected(self):
        ops = [_op(0, "a"), _op(1, "snk", OperatorKind.SINK)]
        with pytest.raises(GraphValidationError):
            StreamGraph(ops, [StreamEdge(0, 1)])

    def test_graph_without_sink_rejected(self):
        ops = [_op(0, "src", OperatorKind.SOURCE), _op(1, "a")]
        with pytest.raises(GraphValidationError, match="sink"):
            StreamGraph(ops, [StreamEdge(0, 1)])


class TestGraphAccessors:
    def test_topological_order_respects_edges(self, diamond):
        order = diamond.topological_order()
        pos = {idx: i for i, idx in enumerate(order)}
        for edge in diamond.edges:
            assert pos[edge.src] < pos[edge.dst]

    def test_by_name(self, diamond):
        assert diamond.by_name("b").name == "b"
        with pytest.raises(KeyError):
            diamond.by_name("nope")

    def test_successors_predecessors(self, diamond):
        a = diamond.by_name("a").index
        d = diamond.by_name("d").index
        assert set(diamond.successors(a)) == {
            diamond.by_name("b").index,
            diamond.by_name("c").index,
        }
        assert diamond.fan_in(d) == 2

    def test_sources_and_sinks(self, diamond):
        assert [op.name for op in diamond.sources] == ["src"]
        assert [op.name for op in diamond.sinks] == ["snk"]

    def test_repr_mentions_size(self, diamond):
        assert "operators=6" in repr(diamond)


class TestArrivalRates:
    def test_linear_chain_rates_all_one(self, chain10):
        rates = chain10.arrival_rates()
        assert all(abs(r - 1.0) < 1e-12 for r in rates.values())

    def test_broadcast_fanout_replicates(self, diamond):
        rates = diamond.arrival_rates()
        d = diamond.by_name("d").index
        # b and c each see rate 1 and both feed d.
        assert rates[d] == pytest.approx(2.0)

    def test_split_fanout_divides(self):
        b = GraphBuilder("split")
        src = b.add_source("src", fanout=FanoutPolicy.SPLIT)
        w1 = b.add_operator("w1")
        w2 = b.add_operator("w2")
        snk = b.add_sink("snk")
        b.fan_out(src, [w1, w2])
        b.fan_in([w1, w2], snk)
        g = b.build()
        rates = g.arrival_rates()
        assert rates[w1.index] == pytest.approx(0.5)
        assert rates[snk.index] == pytest.approx(1.0)

    def test_selectivity_scales_rates(self):
        b = GraphBuilder("sel")
        src = b.add_source("src")
        tok = b.add_operator("tok", selectivity=7.0)
        snk = b.add_sink("snk")
        b.chain(src, tok, snk)
        g = b.build()
        rates = g.arrival_rates()
        assert rates[snk.index] == pytest.approx(7.0)

    def test_weighted_cost_combines_rate_and_cost(self):
        b = GraphBuilder("wc")
        src = b.add_source("src", selectivity=3.0)
        op = b.add_operator("op", cost_flops=100.0)
        snk = b.add_sink("snk")
        b.chain(src, op, snk)
        g = b.build()
        weighted = g.weighted_cost_flops()
        assert weighted[op.index] == pytest.approx(300.0)


class TestGraphMutation:
    def test_replace_costs_returns_new_graph(self, chain10):
        target = chain10.by_name("op3").index
        new = chain10.replace_costs({target: 9999.0})
        assert new is not chain10
        assert new.operator(target).cost_flops == 9999.0
        assert chain10.operator(target).cost_flops == 1000.0

    def test_replace_costs_keeps_unmentioned(self, chain10):
        new = chain10.replace_costs({})
        for op, old in zip(new, chain10):
            assert op.cost_flops == old.cost_flops

    def test_with_tuple_spec(self, chain10):
        new = chain10.with_tuple_spec(TupleSpec(payload_bytes=4096))
        assert new.tuple_spec.payload_bytes == 4096
        assert chain10.tuple_spec.payload_bytes == 256

    def test_total_cost(self, chain10):
        # 10 ops x 1000 + source 10 + sink 10
        assert chain10.total_cost_flops() == pytest.approx(10020.0)


class TestLinearChains:
    def _chains(self, graph):
        """Chains as lists of operator names."""
        return [
            [graph.operator(i).name for i in ops]
            for ops in graph.linear_chains.ops
        ]

    def test_pipeline_is_one_chain(self, chain10):
        chains = chain10.linear_chains
        assert chains.ops == (chain10.topological_order(),)
        for pos, idx in enumerate(chain10.topological_order()):
            assert (chains.chain[idx], chains.position[idx]) == (0, pos)

    def test_branch_and_merge_end_chains(self, diamond):
        assert self._chains(diamond) == [
            ["src", "a"], ["b"], ["c"], ["d", "snk"]
        ]
        chains = diamond.linear_chains
        for c, ops in enumerate(chains.ops):
            for pos, idx in enumerate(ops):
                assert (chains.chain[idx], chains.position[idx]) == (c, pos)

    def test_parallel_edges_end_a_chain(self):
        ops = _simple_ops()
        g = StreamGraph(ops, _simple_edges() + [StreamEdge(1, 2)])
        assert self._chains(g) == [["src", "mid"], ["snk"]]

    def test_negative_zero_selectivity_rate_is_positive(self):
        ops = _simple_ops()
        ops[1] = _op(1, "mid", selectivity=-0.0)
        g = StreamGraph(ops, _simple_edges())
        assert str(g.edge_rate_multiplier(1)) == "-0.0"
        assert str(g.linear_chains.flat_rates[2]) == "0.0"

    def test_topological_positions_invert_the_order(self, diamond):
        order = diamond.topological_order()
        positions = diamond.topological_positions
        assert [order[positions[i]] for i in range(len(diamond))] == list(
            range(len(diamond))
        )


class TestFlatChains:
    def test_flat_arrays_lay_the_chains_end_to_end(self, diamond):
        chains = diamond.linear_chains
        n = len(diamond)
        flat = [op for ops in chains.ops for op in ops]
        assert list(chains.flat_ops) == flat + [n]
        for pos, op in enumerate(flat):
            assert chains.flat_index[op] == pos
            assert chains.flat_rates[pos] == diamond.arrival_rates()[op]
            ops = chains.ops[chains.chain[op]]
            end = flat.index(ops[0]) + len(ops)
            assert chains.flat_end[op] == end
        assert chains.flat_index[n] == n

    def test_chain_products_are_the_arrival_rates(self):
        # decompose takes a chain segment's rates, the products of the
        # multipliers from its head's arrival rate, as arrival rates.
        selectivities = (1.0, 0.1, 3.0, 0.7, 1.3, 0.3, 2.9, 0.0, 5.0)
        ops = [_op(0, "src", OperatorKind.SOURCE)] + [
            _op(i, f"op{i}", selectivity=s)
            for i, s in enumerate(selectivities, 1)
        ]
        ops[-1] = _op(len(ops) - 1, "snk", OperatorKind.SINK)
        g = StreamGraph(
            ops, [StreamEdge(i, i + 1) for i in range(len(ops) - 1)]
        )
        mults = [0.0 + m for m in g.edge_rate_multipliers]
        rates = list(g.linear_chains.flat_rates)
        for head in range(len(ops)):
            assert list(
                accumulate(mults[head:-1], mul, initial=rates[head])
            ) == rates[head:]

    def test_flat_walks_mark_chains_ending_at_a_branch_or_merge(
        self, diamond
    ):
        chains = diamond.linear_chains
        walks = {
            chains.flat_ops[p - 1]
            for p in range(1, len(diamond) + 1)
            if chains.flat_walks[p]
        }
        names = {diamond.operator(i).name for i in walks}
        # src-a branches, b and c merge into d; d-snk ends at the sink.
        assert names == {"a", "b", "c"}
        assert not chains.flat_walks[0]

    def test_flat_arrays_are_read_only(self, chain10):
        chains = chain10.linear_chains
        for array in chains[3:]:
            with pytest.raises(ValueError):
                array[0] = array[0]
