"""Tests for the thread registry and snapshot profiler (§3 mechanism)."""

from __future__ import annotations

import pytest

from repro.core import build_groups
from repro.des import DesEngine
from repro.graph import GraphBuilder, pipeline
from repro.perfmodel import laptop
from repro.runtime import QueuePlacement
from repro.runtime.threads import SnapshotProfiler, ThreadRegistry


class TestThreadRegistry:
    def test_register_and_publish(self):
        reg = ThreadRegistry()
        reg.register("t0")
        reg.set_current("t0", 5)
        assert reg.snapshot() == (("t0", 5),)

    def test_state_handle_publishes(self):
        reg = ThreadRegistry()
        registered = reg.register("t0")
        handle = reg.state("t0")
        assert handle is registered
        handle.current_operator = 4
        assert reg.snapshot() == (("t0", 4),)
        with pytest.raises(KeyError):
            reg.state("t1")

    def test_duplicate_registration_rejected(self):
        reg = ThreadRegistry()
        reg.register("t0")
        with pytest.raises(ValueError):
            reg.register("t0")

    def test_idle_threads_report_none(self):
        reg = ThreadRegistry()
        reg.register("t0")
        reg.register("t1")
        reg.set_current("t0", 3)
        snap = dict(reg.snapshot())
        assert snap["t0"] == 3
        assert snap["t1"] is None

    def test_snapshot_counts_tracked(self):
        reg = ThreadRegistry()
        state = reg.register("t0")
        reg.snapshot()
        reg.snapshot()
        assert state.snapshots_taken == 2


class TestSnapshotProfiler:
    def test_counts_accumulate(self):
        reg = ThreadRegistry()
        reg.register("a")
        reg.register("b")
        prof = SnapshotProfiler(reg)
        reg.set_current("a", 1)
        reg.set_current("b", 2)
        prof.sample()
        reg.set_current("b", 1)
        prof.sample()
        profile = prof.profile(n_operators=4)
        counts = profile.as_dict()
        # Thread a was caught in operator 1 twice; thread b once in 2,
        # once in 1.
        assert counts[1] == 3
        assert counts[2] == 1
        assert counts[0] == 0
        assert prof.samples_taken == 2

    def test_idle_threads_not_counted(self):
        reg = ThreadRegistry()
        reg.register("a")
        prof = SnapshotProfiler(reg)
        prof.sample()
        assert sum(prof.profile(4).as_dict().values()) == 0

    def test_reset(self):
        reg = ThreadRegistry()
        reg.register("a")
        prof = SnapshotProfiler(reg)
        reg.set_current("a", 0)
        prof.sample()
        prof.reset()
        assert prof.samples_taken == 0
        assert sum(prof.profile(2).as_dict().values()) == 0


class TestDesSnapshotProfiling:
    """The profiler mechanism running against actual DES execution."""

    def _heavy_light_graph(self):
        b = GraphBuilder("hl", payload_bytes=64)
        src = b.add_source("src", cost_flops=10.0)
        light = b.add_operator("light", cost_flops=100.0)
        heavy = b.add_operator("heavy", cost_flops=50_000.0)
        snk = b.add_sink("snk", cost_flops=10.0, uses_lock=False)
        b.chain(src, light, heavy, snk)
        return b.build()

    def test_execution_profile_finds_the_heavy_operator(self):
        g = self._heavy_light_graph()
        engine = DesEngine(
            g, laptop(4), QueuePlacement.empty(), 0
        )
        profiler = engine.attach_profiler(period_s=5.0e-6)
        engine.run(warmup_s=0.001, measure_s=0.01)
        profile = profiler.profile(len(g))
        counts = profile.as_dict()
        heavy = g.by_name("heavy").index
        light = g.by_name("light").index
        assert counts[heavy] > 50
        # ~500:1 cost ratio; allow generous sampling noise.
        assert counts[heavy] > 20 * max(1, counts[light])

    def test_groups_built_from_execution_profile(self):
        g = self._heavy_light_graph()
        engine = DesEngine(g, laptop(4), QueuePlacement.empty(), 0)
        profiler = engine.attach_profiler(period_s=5.0e-6)
        engine.run(warmup_s=0.001, measure_s=0.01)
        groups = build_groups(g, profiler.profile(len(g)))
        assert g.by_name("heavy").index in groups[0].members

    def test_attach_after_start_rejected(self):
        g = pipeline(3)
        engine = DesEngine(g, laptop(2), QueuePlacement.empty(), 0)
        engine.start()
        with pytest.raises(RuntimeError):
            engine.attach_profiler()

    def test_attach_twice_returns_same(self):
        g = pipeline(3)
        engine = DesEngine(g, laptop(2), QueuePlacement.empty(), 0)
        a = engine.attach_profiler()
        b = engine.attach_profiler()
        assert a is b
