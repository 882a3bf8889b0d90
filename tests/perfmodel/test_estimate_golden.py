"""Golden byte-identity fixture for the analytical throughput model.

The fixture pins, bit for bit, what :class:`PerformanceModel` returns on
the two graphs the ``perfmodel-wide`` benchmark workload runs (a
512-operator pipeline on a 64-core Xeon slice and a width-32
data-parallel fan on POWER8), over a seeded set of placements x thread
counts, plus the full perfmodel-backend log of one 512-operator
``xeon-wide-pipeline`` adaptation run.  Any caching or reordering in the
model's hot path must leave every float unchanged.

Regions that continue past a branch or merge and locks that several
regions contend for are pinned by digests, one per (graph, placement)
over all thread counts: the PacketAnalysis (1 and 8 sources) and VWAP
app graphs under empty, full, hand-optimized and seeded random
placements on the Xeon profile, and the seeded ``random_graph`` x
``random_placement`` cells of ``test_decompose_properties.py`` (SPLIT
fan-out, selectivities 0.25-3.0, locks) on the Xeon and laptop
profiles.

Regenerate (only when a model change is *meant* to move numbers)::

    PYTHONPATH=src python tests/perfmodel/test_estimate_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.apps.packet_analysis import (
    build_packet_analysis,
    hand_optimized as packet_hand_optimized,
)
from repro.apps.vwap import build_vwap, hand_optimized as vwap_hand_optimized
from repro.obs import ObservabilityHub
from repro.perfmodel import PerformanceModel, laptop, xeon_176
from repro.runtime import QueuePlacement
from repro.scenarios import (
    compile_scenario,
    find_scenario,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "runtime"))
from test_decompose_properties import (  # noqa: E402
    SEEDS,
    random_graph,
    random_placement,
)

FIXTURE = Path(__file__).with_name("estimate_golden.json")
ZOO = Path(__file__).resolve().parents[2] / "scenarios"

# Scenario -> section overrides: the perfmodel-wide benchmark sizes.
GRAPHS = {
    "xeon-wide-pipeline": {
        "topology": {"operators": 512},
        "machine": {"cores": 64},
    },
    "power8-data-parallel": {"topology": {"width": 32}},
}
PLACEMENTS_PER_GRAPH = 10
THREAD_COUNTS = (0, 1, 5, 16, 64)
RUN_SEED = 20190101


def _compiled(name, seed=None):
    doc = scenario_to_dict(load_scenario(find_scenario(name, ZOO)))
    for section, values in GRAPHS[name].items():
        doc[section].update(values)
    if seed is not None:
        doc["run"]["seed"] = seed
    return compile_scenario(scenario_from_dict(doc))


def _placements(graph, name, count=PLACEMENTS_PER_GRAPH):
    """Empty, full, then random subsets of varied density."""
    rng = random.Random(f"golden:{name}")
    eligible = [op.index for op in graph if not op.is_source]
    out = [QueuePlacement.empty(), QueuePlacement.full(graph)]
    while len(out) < count:
        density = rng.choice((0.02, 0.1, 0.3, 0.7))
        out.append(
            QueuePlacement.of(i for i in eligible if rng.random() < density)
        )
    return out


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _estimate_record(est, sink):
    fields = dataclasses.asdict(est)
    del fields["region_heads"], fields["region_works"]
    region_work = est.region_work
    # repr() round-trips floats exactly (inf included).
    record = {key: repr(value) for key, value in sorted(fields.items())}
    record["region_work_sha256"] = _digest(region_work)
    record["n_regions"] = len(region_work)
    record["sink_throughput"] = repr(sink)
    return record


def estimate_records():
    out = {}
    for name in GRAPHS:
        compiled = _compiled(name)
        model = PerformanceModel(compiled.graph, compiled.machine)
        rows = []
        for p_idx, placement in enumerate(_placements(compiled.graph, name)):
            for threads in THREAD_COUNTS:
                est = model.estimate(placement, threads)
                sink = model.sink_throughput(placement, threads)
                row = {
                    "placement": p_idx,
                    "placement_sha256": _digest(sorted(placement.queued)),
                    "threads": threads,
                }
                row.update(_estimate_record(est, sink))
                rows.append(row)
        out[name] = rows
    return out


def cell_digest(model, placement):
    """One digest over every thread count's estimate record."""
    records = [
        _estimate_record(
            model.estimate(placement, threads),
            model.sink_throughput(placement, threads),
        )
        for threads in THREAD_COUNTS
    ]
    return _digest(json.dumps(records, sort_keys=True))


def app_digests():
    """PacketAnalysis (1 and 8 sources) and VWAP on the Xeon profile."""
    graphs = [build_packet_analysis(n) for n in (1, 8)] + [build_vwap()]
    hand = (packet_hand_optimized, packet_hand_optimized, vwap_hand_optimized)
    out = {}
    for graph, optimized in zip(graphs, hand):
        model = PerformanceModel(graph, xeon_176())
        placements = _placements(graph, graph.name, count=8)
        placements.append(optimized(graph)[0])
        out[graph.name] = [cell_digest(model, p) for p in placements]
    return out


def random_digests():
    """The seeded random graph x placement cells, laptop on odd seeds."""
    out = {}
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = random_graph(rng)
        placements = [random_placement(graph, rng) for _ in range(4)]
        model = PerformanceModel(graph, laptop(8) if seed % 2 else xeon_176())
        out[str(seed)] = [cell_digest(model, p) for p in placements]
    return out


def run_record():
    compiled = _compiled("xeon-wide-pipeline", seed=RUN_SEED)
    hub = ObservabilityHub()
    (result,) = run_scenario(
        compiled, backend="perfmodel", obs=hub, warm_start="off"
    )
    log = json.dumps(
        [dataclasses.asdict(r) for r in hub.records()], sort_keys=True
    ).encode()
    return {
        "records": len(hub.records()),
        "decisions": len(hub.decisions()),
        "log_sha256": hashlib.sha256(log).hexdigest(),
        "periods": result.periods,
        "converged_throughput": repr(result.converged_throughput),
        "final_threads": result.final_threads,
        "final_n_queues": result.final_n_queues,
    }


def current():
    return {
        "estimates": estimate_records(),
        "apps": app_digests(),
        "random": random_digests(),
        "run": run_record(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_estimates_match_golden(golden, name):
    got = estimate_records()[name]
    want = golden["estimates"][name]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (g["placement"], g["threads"])


def test_app_estimates_match_golden(golden):
    assert app_digests() == golden["apps"]


def test_random_cell_estimates_match_golden(golden):
    assert random_digests() == golden["random"]


def test_perfmodel_run_log_matches_golden(golden):
    assert run_record() == golden["run"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
