"""Golden fixture for the DES engine's hub metrics.

Pins, name by name, every ``des.*`` and ``pe.<name>.des.*`` metric an
:class:`~repro.obs.ObservabilityHub` holds after

- each single measurement window of ``test_open_loop_golden`` (profiler
  attached and detached), run with a fresh hub, and
- each open-loop and multi-PE zoo scenario, run end to end,

together with the full set of metric names the hub's registry holds.
``des.parked_threads`` is left out of the values: it is a gauge of the
threads parked when the last run ended, not an accumulated tally.

Values compare exactly.

Regenerate (only when a change is *meant* to move these metrics)::

    PYTHONPATH=src python tests/des/test_hub_metrics_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from test_open_loop_golden import _label, _run_window, _window_keys

from repro.bench import cache
from repro.obs import ObservabilityHub
from repro.scenarios import load_compiled, run_scenario
from repro.scenarios.zoo import scenario_files

FIXTURE = Path(__file__).with_name("hub_metrics_golden.json")
UNPINNED = "des.parked_threads"


def _is_des(name: str) -> bool:
    return name.startswith("des.") or (
        name.startswith("pe.") and ".des." in name
    )


def _record(hub) -> dict:
    registry = hub.registry
    return {
        "names": sorted(m.name for m in registry),
        "values": {
            m.name: m.value
            for m in registry
            if _is_des(m.name) and not m.name.endswith(UNPINNED)
        },
    }


def window_records() -> dict:
    out = {}
    for name, compiled, queued, threads, t0, profiled in _window_keys():
        hub = ObservabilityHub()
        _run_window(compiled, queued, threads, t0, profiled, obs=hub)
        out[_label(name, queued, threads, t0, profiled)] = _record(hub)
    return out


def scenario_records() -> dict:
    out = {}
    for path in scenario_files(None):
        compiled = load_compiled(path)
        if not (compiled.open_loop or compiled.job is not None):
            continue
        cache.clear()
        hub = ObservabilityHub()
        run_scenario(compiled, obs=hub, warm_start="off")
        out[path.stem] = _record(hub)
    return out


def current() -> dict:
    return {"windows": window_records(), "scenarios": scenario_records()}


def _assert_matches(got: dict, want: dict, label: str) -> None:
    assert got["names"] == want["names"], label
    assert got["values"] == want["values"], label


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_windows_match_golden(golden):
    got = window_records()
    assert sorted(got) == sorted(golden["windows"])
    for label, want in golden["windows"].items():
        _assert_matches(got[label], want, label)


def test_scenarios_match_golden(golden):
    got = scenario_records()
    assert sorted(got) == sorted(golden["scenarios"])
    for name, want in golden["scenarios"].items():
        _assert_matches(got[name], want, name)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
