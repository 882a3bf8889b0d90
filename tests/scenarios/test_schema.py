"""Schema validation: errors name the offending field, round-trips hold."""

from __future__ import annotations

import pytest

from repro.scenarios.schema import (
    ArrivalKind,
    Backend,
    ModulationKind,
    OverflowPolicy,
    Scenario,
    ScenarioError,
    TopologyShape,
    scenario_from_dict,
    scenario_to_dict,
)


def _minimal(**overrides):
    data = {"name": "t"}
    data.update(overrides)
    return data


class TestFieldErrors:
    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(wokload={}))
        assert str(err.value).startswith("wokload: unknown field")

    def test_retired_channel_fastforward_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(channel={"fastforward": False}))
        assert str(err.value) == (
            "channel.fastforward: unknown field "
            "(valid fields: batch_size, flush_timeout_ms, prefetch)"
        )

    def test_unknown_enum_value_lists_alternatives(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(workload={"arrivals": {"kind": "poison"}})
            )
        msg = str(err.value)
        assert msg.startswith("workload.arrivals.kind: unknown value 'poison'")
        assert "'poisson'" in msg and "'saturated'" in msg

    def test_negative_rate_names_field(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    workload={
                        "arrivals": {"kind": "poisson", "rate": -5.0}
                    }
                )
            )
        assert str(err.value) == "workload.arrivals.rate: must be > 0, got -5.0"

    def test_open_loop_requires_rate(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(workload={"arrivals": {"kind": "deterministic"}})
            )
        assert "workload.arrivals.rate" in str(err.value)

    def test_saturated_rejects_nonzero_rate(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    workload={
                        "arrivals": {"kind": "saturated", "rate": 100.0}
                    }
                )
            )
        assert "saturated arrivals take no rate" in str(err.value)

    def test_saturated_accepts_zero_rate(self):
        # scenario_to_dict emits every field, including rate=0.0 for
        # saturated arrivals; the parser must accept its own output.
        s = scenario_from_dict(
            _minimal(
                workload={"arrivals": {"kind": "saturated", "rate": 0.0}}
            )
        )
        assert s.workload.arrivals.kind is ArrivalKind.SATURATED

    def test_unknown_edge_operator_named(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    topology={
                        "shape": "custom",
                        "nodes": [
                            {"name": "a", "kind": "source"},
                            {"name": "b", "kind": "sink"},
                        ],
                        "edges": [["a", "zz"]],
                    }
                )
            )
        msg = str(err.value)
        assert msg.startswith("topology.edges[0][1]: unknown operator name 'zz'")
        assert "known: a, b" in msg

    def test_self_loop_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    topology={
                        "shape": "custom",
                        "nodes": [
                            {"name": "a", "kind": "source"},
                            {"name": "b", "kind": "sink"},
                        ],
                        "edges": [["a", "b"], ["b", "b"]],
                    }
                )
            )
        assert "self loops" in str(err.value)

    def test_nodes_invalid_for_generated_shape(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    topology={
                        "shape": "pipeline",
                        "nodes": [{"name": "a"}],
                    }
                )
            )
        assert "only valid for shape 'custom'" in str(err.value)

    def test_bad_version_rejected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(version=99))
        assert "version" in str(err.value)

    def test_modulation_unknown_field(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    workload={
                        "arrivals": {
                            "kind": "poisson",
                            "rate": 10.0,
                            "modulation": {"kind": "onoff", "onn_s": 1.0},
                        }
                    }
                )
            )
        assert "workload.arrivals.modulation.onn_s" in str(err.value)

    def test_cost_fractions_bounded(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(
                    topology={
                        "cost": {
                            "kind": "skewed",
                            "heavy_fraction": 0.7,
                            "medium_fraction": 0.6,
                        }
                    }
                )
            )
        assert "must be <= 1" in str(err.value)

    def test_payload_mix_requires_entries(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                _minimal(workload={"payload": {"kind": "mix"}})
            )
        assert "workload.payload.mix" in str(err.value)


class TestRoundTrip:
    def test_default_scenario_round_trips(self):
        s = scenario_from_dict({"name": "defaults"})
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_rich_scenario_round_trips(self):
        s = scenario_from_dict(
            {
                "name": "rich",
                "description": "everything set",
                "topology": {
                    "shape": "custom",
                    "payload_bytes": 512,
                    "nodes": [
                        {"name": "src", "kind": "source"},
                        {"name": "mid", "selectivity": 0.5},
                        {"name": "snk", "kind": "sink", "uses_lock": True},
                    ],
                    "edges": [["src", "mid"], ["mid", "snk"]],
                },
                "workload": {
                    "arrivals": {
                        "kind": "poisson",
                        "rate": 1000.0,
                        "modulation": {
                            "kind": "flash_crowd",
                            "at_s": 5.0,
                            "ramp_s": 2.0,
                            "hold_s": 4.0,
                            "factor": 3.0,
                        },
                        "seed": 7,
                    },
                    "payload": {
                        "kind": "mix",
                        "mix": [
                            {"payload_bytes": 64, "weight": 3.0},
                            {"payload_bytes": 1024, "weight": 1.0},
                        ],
                    },
                },
                "machine": {"profile": "xeon", "cores": 16},
                "run": {
                    "backend": "des",
                    "seed": 5,
                    "overflow": "drop",
                    "queue_capacity": 8,
                    "stop_after_stable_periods": None,
                },
            }
        )
        again = scenario_from_dict(scenario_to_dict(s))
        assert again == s
        assert again.run.overflow is OverflowPolicy.DROP
        assert again.run.backend is Backend.DES
        assert again.topology.shape is TopologyShape.CUSTOM
        assert (
            again.workload.arrivals.modulation.kind
            is ModulationKind.FLASH_CROWD
        )

    def test_to_dict_emits_every_field(self):
        data = scenario_to_dict(Scenario(name="full"))
        assert data["version"] == 1
        assert set(data) == {
            "version",
            "name",
            "description",
            "topology",
            "workload",
            "channel",
            "machine",
            "pes",
            "partition",
            "run",
        }
        # nested specs are fully expanded, not elided
        assert "queue_capacity" in data["run"]
        assert "modulation" in data["workload"]["arrivals"]


class TestRunJobs:
    """The run.jobs knob: multi-PE worker-pool width."""

    def test_jobs_parses_and_round_trips(self):
        s = scenario_from_dict(_minimal(run={"jobs": 4}))
        assert s.run.jobs == 4
        again = scenario_from_dict(scenario_to_dict(s))
        assert again.run.jobs == 4

    def test_jobs_defaults_to_none(self):
        s = scenario_from_dict(_minimal())
        assert s.run.jobs is None
        # None round-trips too (the flag/env fallback stays live).
        assert scenario_from_dict(scenario_to_dict(s)).run.jobs is None

    def test_jobs_must_be_a_positive_integer(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(run={"jobs": 0}))
        assert "run.jobs" in str(err.value)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(run={"jobs": 2.5}))
        assert "run.jobs" in str(err.value)


class TestRunWarmStart:
    """The run.warm_start knob: coordinator seeding policy."""

    def test_warm_start_parses_and_round_trips(self):
        for mode in ("off", "model", "history", "auto"):
            s = scenario_from_dict(_minimal(run={"warm_start": mode}))
            assert s.run.warm_start == mode
            again = scenario_from_dict(scenario_to_dict(s))
            assert again.run.warm_start == mode

    def test_warm_start_defaults_to_none(self):
        s = scenario_from_dict(_minimal())
        assert s.run.warm_start is None
        # None round-trips too (the flag/env fallback stays live).
        assert (
            scenario_from_dict(scenario_to_dict(s)).run.warm_start is None
        )

    def test_warm_start_rejects_unknown_modes(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(run={"warm_start": "always"}))
        assert "run.warm_start" in str(err.value)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_minimal(run={"warm_start": 1}))
        assert "run.warm_start" in str(err.value)
