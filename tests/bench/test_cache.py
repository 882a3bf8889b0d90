"""Measurement memoization (repro.bench.cache)."""

from __future__ import annotations

import pytest

from repro.bench import cache
from repro.bench.harness import compare, oracle_sweep
from repro.des.adaptation import DesAdaptationRunner
from repro.graph.topologies import pipeline
from repro.perfmodel.machine import laptop
from repro.runtime.config import RuntimeConfig


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch):
    """Each test starts and ends with an empty, enabled cache."""
    cache.clear()
    monkeypatch.setenv("REPRO_MEMO", "1")
    yield
    cache.clear()


def _runner(seed=3, **kwargs):
    return DesAdaptationRunner(
        pipeline(6, cost_flops=2000.0, payload_bytes=128),
        laptop(4),
        RuntimeConfig(cores=4, seed=seed),
        warmup_s=0.001,
        measure_s=0.003,
        **kwargs,
    )


class TestFingerprints:
    def test_graph_fingerprint_stable_and_cost_sensitive(self):
        g1 = pipeline(6, cost_flops=2000.0, payload_bytes=128)
        g2 = pipeline(6, cost_flops=2000.0, payload_bytes=128)
        assert cache.graph_fingerprint(g1) == cache.graph_fingerprint(g2)
        heavier = g1.replace_costs({2: 9999.0})
        assert cache.graph_fingerprint(heavier) != cache.graph_fingerprint(
            g1
        )

    def test_machine_fingerprint_distinguishes_cores(self):
        assert cache.machine_fingerprint(laptop(4)) != (
            cache.machine_fingerprint(laptop(8))
        )

    def test_fingerprint_is_deterministic(self):
        assert cache.fingerprint("a", 1, (2.0,)) == cache.fingerprint(
            "a", 1, (2.0,)
        )
        assert cache.fingerprint("a") != cache.fingerprint("b")


class TestStore:
    def test_lookup_miss_then_hit(self):
        key = ("k", 1)
        hit, value = cache.lookup(key)
        assert not hit and value is None
        cache.store(key, "v")
        hit, value = cache.lookup(key)
        assert hit and value == "v"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_disabled_never_hits_or_stores(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO", "0")
        cache.store(("k",), "v")
        hit, _ = cache.lookup(("k",))
        assert not hit
        # Nothing leaked into the store while disabled.
        assert cache.stats()["entries"] == 0

    def test_eviction_resets_at_capacity(self):
        for i in range(cache.MAX_ENTRIES):
            cache.store(("k", i), i)
        assert cache.stats()["entries"] == cache.MAX_ENTRIES
        cache.store(("overflow",), 1)
        assert cache.stats()["entries"] == 1

    def test_snapshot_install_round_trip(self):
        cache.store(("a",), 1)
        cache.store(("b",), (2, "x"))
        cache.store(("unpicklable",), lambda: None)
        exported = cache.snapshot()
        assert ("a",) in exported and ("b",) in exported
        assert ("unpicklable",) not in exported
        cache.clear()
        cache.install(exported)
        assert cache.lookup(("a",)) == (True, 1)
        assert cache.lookup(("b",)) == (True, (2, "x"))


class TestMeasureMemoization:
    def test_hit_returns_identical_measurement(self):
        r1 = _runner()
        first = r1.measure()
        events_first = r1.sim_events
        assert events_first > 0
        # Same configuration in a fresh runner: pure cache hit.
        r2 = _runner()
        second = r2.measure()
        assert second == first
        assert r2.sim_events == 0
        assert cache.stats()["hits"] >= 1

    def test_seed_change_misses(self):
        r1 = _runner(seed=3)
        r1.measure()
        r2 = _runner(seed=4)
        r2.measure()
        assert r2.sim_events > 0  # keyed on seed: re-simulated

    def test_profiled_hit_replays_profile(self):
        r1 = _runner(profile_from_execution=True)
        r1.measure()
        groups_live = r1._profile_groups()
        r2 = _runner(profile_from_execution=True)
        r2.measure()
        assert r2.sim_events == 0
        groups_cached = r2._profile_groups()
        assert [g.members for g in groups_cached] == [
            g.members for g in groups_live
        ]

    def test_adaptation_run_unchanged_by_memoization(self, monkeypatch):
        """Memo hits replay identical measurements, so the decision
        trajectory is untouched."""
        monkeypatch.setenv("REPRO_MEMO", "0")
        cold = _runner().run(max_periods=20, stop_after_stable_periods=None)
        monkeypatch.setenv("REPRO_MEMO", "1")
        warm = _runner().run(
            max_periods=20, stop_after_stable_periods=None
        )
        assert warm.final_threads == cold.final_threads
        assert warm.final_placement.queued == cold.final_placement.queued
        assert [o.throughput for o in warm.trace.observations] == [
            o.throughput for o in cold.trace.observations
        ]


class TestHarnessMemoization:
    def test_compare_hit_skips_rerun(self):
        graph = pipeline(6, cost_flops=500.0, payload_bytes=128)
        machine = laptop(4)
        config = RuntimeConfig(cores=4, seed=1)
        first = compare(graph, machine, config)
        before = cache.stats()["hits"]
        second = compare(graph, machine, config)
        assert cache.stats()["hits"] == before + 1
        # Identical payload (wall_s reflects the skipped work).
        assert second.multi_level.throughput == (
            first.multi_level.throughput
        )
        assert second.manual == first.manual
        assert second.wall_s <= first.wall_s

    def test_oracle_sweep_hit_returns_equal_rows(self):
        graph = pipeline(6, cost_flops=500.0, payload_bytes=128)
        machine = laptop(4)
        fractions = (0.0, 0.5, 1.0)
        first = oracle_sweep(graph, machine, fractions)
        before = cache.stats()["hits"]
        second = oracle_sweep(graph, machine, fractions)
        assert cache.stats()["hits"] == before + 1
        assert second == first
        assert second is not first  # defensive copy, not the cached list


class TestDiskTier:
    """The optional on-disk tier (REPRO_MEMO_DIR / explicit directory)."""

    def test_disabled_without_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMO_DIR", raising=False)
        assert cache.disk_dir() is None
        assert cache.disk_lookup("memo", ("k",)) == (False, None)
        # store is a value-returning no-op
        assert cache.disk_store("memo", ("k",), 42) == 42

    def test_round_trip_survives_memory_clear(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path))
        key = ("measure", "abc", 3)
        cache.store(key, {"throughput": 123.0})
        cache.clear()  # wipe the in-memory tier only
        hit, value = cache.lookup(key)
        assert hit and value == {"throughput": 123.0}
        # the disk hit was promoted back into memory
        hit2, _ = cache.lookup(key)
        assert hit2

    def test_explicit_directory_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "env"))
        explicit = tmp_path / "explicit"
        cache.disk_store("memo", ("k",), 7, directory=str(explicit))
        assert cache.disk_lookup(
            "memo", ("k",), directory=str(explicit)
        ) == (True, 7)
        assert cache.disk_lookup("memo", ("k",)) == (False, None)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        key = ("k", 1)
        cache.disk_store("memo", key, "good", directory=str(tmp_path))
        path = tmp_path / "memo" / f"{cache.fingerprint(key)}.pkl"
        path.write_bytes(b"\x80garbage not a pickle")
        assert cache.disk_lookup(
            "memo", key, directory=str(tmp_path)
        ) == (False, None)

    def test_version_mismatch_is_a_miss(self, tmp_path):
        import pickle

        key = ("k", 2)
        path = tmp_path / "memo" / f"{cache.fingerprint(key)}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps((cache.DISK_FORMAT_VERSION + 1, key, "stale"))
        )
        assert cache.disk_lookup(
            "memo", key, directory=str(tmp_path)
        ) == (False, None)

    def test_digest_collision_payload_is_a_miss(self, tmp_path):
        """An entry whose stored key differs from the requested one
        (hash collision, or a renamed file) must not be served."""
        import pickle

        key = ("k", 3)
        path = tmp_path / "memo" / f"{cache.fingerprint(key)}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps((cache.DISK_FORMAT_VERSION, ("other",), "wrong"))
        )
        assert cache.disk_lookup(
            "memo", key, directory=str(tmp_path)
        ) == (False, None)

    def test_unpicklable_value_is_swallowed(self, tmp_path):
        cache.disk_store(
            "memo", ("k",), lambda: None, directory=str(tmp_path)
        )
        assert cache.disk_lookup(
            "memo", ("k",), directory=str(tmp_path)
        ) == (False, None)
        # no temp litter left behind
        leftovers = list((tmp_path / "memo").glob("*.tmp.*"))
        assert leftovers == []
