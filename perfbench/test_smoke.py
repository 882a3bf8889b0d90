"""Smoke test: each workload, at tiny size, emits every named metric.

Run with ``python3 -m pytest perfbench/test_smoke.py -q`` from the
repository root (about a minute).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_metric_table():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == {k: (m.unit, m.better) for k, m in table.items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    out = _run(workload, trace)
    table = PER_LAYER if trace else END_TO_END
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == set(table)
    for name, meta in table.items():
        assert out["metrics"][name]["unit"] == meta.unit
        assert isinstance(out["metrics"][name]["value"], float)


def test_bare_directory_fails_without_result(tmp_path):
    """Only BENCHMARK.json and perfbench/: no program to measure."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "perfmodel-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
