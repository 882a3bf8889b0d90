"""Golden bit-identity fixture for the region decomposition.

The fixture pins, bit for bit, what :func:`decompose` returns: every
``Region`` field (floats via ``float.hex``, member and push order
included) plus ``threads_reaching`` of every operator.  Cases:

- the two ``perfmodel-wide`` benchmark graphs (a 512-operator pipeline
  and a width-32 data-parallel fan) and the PacketAnalysis (1 and 8
  sources) and VWAP app graphs, each under empty, full, hand-optimized
  (apps) and seeded random placements;
- the seeded ``random_graph`` x ``random_placement`` cells of
  ``test_decompose_properties.py`` (SPLIT fan-out, selectivities
  0.25-3.0, locks);
- every placement one 512-operator ``xeon-wide-pipeline`` perfmodel
  adaptation run decomposes, in order.  That sequence is stored in the
  fixture too, so ``benchmarks/test_perfmodel_decompose.py`` replays
  the same placements.

Regenerate (only when a decomposition change is *meant* to move
numbers)::

    PYTHONPATH=src python tests/runtime/test_decompose_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

import repro.perfmodel.throughput as throughput
from repro.apps.packet_analysis import (
    build_packet_analysis,
    hand_optimized as packet_hand_optimized,
)
from repro.apps.vwap import build_vwap, hand_optimized as vwap_hand_optimized
from repro.runtime import QueuePlacement
from repro.runtime.regions import decompose
from repro.scenarios import (
    compile_scenario,
    find_scenario,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from test_decompose_properties import SEEDS, random_graph, random_placement

FIXTURE = Path(__file__).with_name("decompose_golden.json")
ZOO = Path(__file__).resolve().parents[2] / "scenarios"

# Scenario -> section overrides: the perfmodel-wide benchmark sizes.
WIDE = {
    "xeon-wide-pipeline": {
        "topology": {"operators": 512},
        "machine": {"cores": 64},
    },
    "power8-data-parallel": {"topology": {"width": 32}},
}
RANDOM_PLACEMENTS = 8
RUN_SEED = 3


def wide_compiled(name, seed=None):
    doc = scenario_to_dict(load_scenario(find_scenario(name, ZOO)))
    for section, values in WIDE[name].items():
        doc[section].update(values)
    if seed is not None:
        doc["run"]["seed"] = seed
    return compile_scenario(scenario_from_dict(doc))


def _graphs():
    """Name -> (graph, extra placements) for the fixed-graph cases."""
    out = {name: (wide_compiled(name).graph, []) for name in WIDE}
    for n_sources in (1, 8):
        graph = build_packet_analysis(n_sources)
        out[graph.name] = (graph, [packet_hand_optimized(graph)[0]])
    graph = build_vwap()
    out[graph.name] = (graph, [vwap_hand_optimized(graph)[0]])
    return out


def _placements(graph, name):
    """Empty, full, then random subsets of varied density."""
    rng = random.Random(f"decompose-golden:{name}")
    eligible = [op.index for op in graph if not op.is_source]
    out = [QueuePlacement.empty(), QueuePlacement.full(graph)]
    for _ in range(RANDOM_PLACEMENTS):
        density = rng.choice((0.02, 0.1, 0.3, 0.7))
        out.append(
            QueuePlacement.of(i for i in eligible if rng.random() < density)
        )
    return out


def canonical(graph, decomp):
    """Every field of every region, floats as ``float.hex``."""
    return {
        "regions": [
            [
                r.entry,
                r.is_source_region,
                r.entry_rate.hex(),
                [[op, rate.hex()] for op, rate in r.op_rates],
                [[q, rate.hex()] for q, rate in r.push_rates],
            ]
            for r in decomp.regions
        ],
        "threads_reaching": [
            decomp.threads_reaching(op.index) for op in graph
        ],
    }


def record(graph, placement):
    blob = json.dumps(canonical(graph, decompose(graph, placement)))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_placements():
    """Placements one 512-operator xeon-wide-pipeline run decomposes,
    each as its sorted queued operators joined by spaces."""
    compiled = wide_compiled("xeon-wide-pipeline", seed=RUN_SEED)
    seen = []
    real = throughput.decompose

    def spy(graph, placement):
        seen.append(" ".join(map(str, sorted(placement.queued))))
        return real(graph, placement)

    throughput.decompose = spy
    try:
        run_scenario(compiled, backend="perfmodel", warm_start="off")
    finally:
        throughput.decompose = real
    return compiled.graph, seen


def graph_records():
    out = {}
    for name, (graph, extra) in _graphs().items():
        placements = _placements(graph, name) + extra
        out[name] = [record(graph, p) for p in placements]
    return out


def random_records():
    out = {}
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = random_graph(rng)
        placements = [random_placement(graph, rng) for _ in range(4)]
        out[str(seed)] = [record(graph, p) for p in placements]
    return out


def parse_placement(text):
    return QueuePlacement.of(int(i) for i in text.split())


def sequence_records(graph, placements):
    return [record(graph, parse_placement(q)) for q in placements]


def current():
    graph, placements = run_placements()
    return {
        "graphs": graph_records(),
        "random": random_records(),
        "run": {
            "seed": RUN_SEED,
            "placements": placements,
            "sha256": sequence_records(graph, placements),
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_graph_decompositions_match_golden(golden):
    assert graph_records() == golden["graphs"]


def test_random_cells_match_golden(golden):
    assert random_records() == golden["random"]


def test_run_placement_sequence_matches_golden(golden):
    graph, placements = run_placements()
    want = golden["run"]
    assert placements == want["placements"]
    got = sequence_records(graph, placements)
    bad = [i for i, (g, w) in enumerate(zip(got, want["sha256"])) if g != w]
    assert not bad, bad[:10]
    assert len(got) == len(want["sha256"])


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
