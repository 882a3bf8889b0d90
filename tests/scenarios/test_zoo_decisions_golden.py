"""Golden decision logs for every run of the scenario zoo.

Each config in ``scenarios/`` runs through :func:`run_scenario` once
per backend it declares (``both`` runs DES and perfmodel separately),
with a fresh :class:`ObservabilityHub`, an empty memo cache and warm
start off.  Per run the fixture pins the sha256 of the canonical
decision log (``json.dumps`` of the decision dataclasses with sorted
keys), the same digest with each decision's ``seq``, ``time_s`` and
``period`` left out (``log_untimed_sha256``: what the controllers
decided, apart from where the hub clock put it), the period count, the
final thread count and the converged throughput, so any change that
moves a single adaptation decision or measured rate anywhere in the
zoo shows up here.

Regenerate (only when a change is *meant* to move decisions)::

    PYTHONPATH=src python tests/scenarios/test_zoo_decisions_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.bench import cache
from repro.obs import ObservabilityHub
from repro.scenarios import load_compiled, run_scenario
from repro.scenarios.schema import Backend
from repro.scenarios.zoo import scenario_files

FIXTURE = Path(__file__).with_name("zoo_decisions_golden.json")
ZOO = {path.stem: path for path in scenario_files(None)}
CLOCK_FIELDS = ("seq", "time_s", "period")


def _sha256(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _backends(compiled):
    declared = compiled.scenario.run.backend
    if declared is Backend.BOTH:
        return (Backend.DES.value, Backend.PERFMODEL.value)
    return (declared.value,)


def scenario_records(name):
    compiled = load_compiled(ZOO[name])
    out = {}
    for backend in _backends(compiled):
        cache.clear()
        hub = ObservabilityHub()
        (result,) = run_scenario(
            compiled, backend=backend, obs=hub, warm_start="off"
        )
        rows = [dataclasses.asdict(d) for d in hub.decisions()]
        untimed = [
            {k: v for k, v in row.items() if k not in CLOCK_FIELDS}
            for row in rows
        ]
        out[f"{name}|{backend}"] = {
            "log_sha256": _sha256(rows),
            "log_untimed_sha256": _sha256(untimed),
            "periods": result.periods,
            "final_threads": result.final_threads,
            "converged_throughput": repr(result.converged_throughput),
        }
    return out


def current():
    out = {}
    for name in ZOO:
        out.update(scenario_records(name))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_golden_covers_the_zoo(golden):
    assert sorted({label.split("|")[0] for label in golden}) == sorted(ZOO)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_decisions_match_golden(golden, name):
    want = {
        label: record
        for label, record in golden.items()
        if label.split("|")[0] == name
    }
    assert scenario_records(name) == want


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
