"""The benchmark's four workloads, generated from zoo configs.

Each workload is a list of zoo scenario names plus the overrides the
benchmark applies before compiling: ``run.seed`` (drawn from the
workload seed) and, for ``perfmodel-wide``, the graph and machine
sizes.  The program under test only ever sees the generated scenario.
Why each workload was chosen is recorded in ``BENCHMARK.json``.

One *iteration* of a workload runs every scenario once per scenario
seed.  Iterations are identical, so every simulated metric repeats
exactly and a rerun doubles as a determinism check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: Tuple[str, ...]
    # Scenario seeds per scenario in one iteration.
    seeds_per_scenario: int
    # Worker-pool width of the timed runs (multi-PE scenarios only).
    jobs: int = 1
    # Force one backend for scenarios declaring ``both``.
    backend: Optional[str] = None
    # Section -> {key: value} overrides applied to every scenario.
    sizes: Dict[str, Dict[str, Dict[str, object]]] = field(
        default_factory=dict
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="single-pe-adapt",
            scenarios=(
                "fig07-pipeline-saturated",
                "skewed-cost-pipeline",
                "tree-bushy",
                "data-parallel-fan",
            ),
            seeds_per_scenario=3,
            backend="des",
        ),
        Workload(
            name="multi-pe-job",
            scenarios=(
                "multi-pe-keyhash-scale",
                "multi-pe-sink-contention",
                "fig07-2pe-passthrough",
            ),
            seeds_per_scenario=3,
            jobs=2,
        ),
        Workload(
            name="open-loop-burst",
            scenarios=(
                "onoff-burst-overflow",
                "onoff-burst-block",
                "flash-crowd-spike",
                "diurnal-poisson",
            ),
            seeds_per_scenario=6,
        ),
        Workload(
            name="perfmodel-wide",
            scenarios=("xeon-wide-pipeline", "power8-data-parallel"),
            seeds_per_scenario=8,
            sizes={
                "xeon-wide-pipeline": {
                    "topology": {"operators": 512},
                    "machine": {"cores": 64},
                },
                "power8-data-parallel": {"topology": {"width": 32}},
            },
        ),
    )
}

# Output checks tied to particular zoo scenarios.
DROP_RULES = {
    "drops": ("onoff-burst-overflow",),
    "no_drops": ("onoff-burst-block",),
}

# ``--size tiny`` (the smoke test) shrinks every run to a few periods.
TINY_RUN = {"max_periods": 4, "duration_s": 100.0}
TINY_TOPOLOGY = {"operators": 32, "width": 8}


@dataclass(frozen=True)
class Case:
    """One adaptation run of an iteration: a compiled scenario."""

    label: str
    scenario: str
    seed: int
    compiled: object


def scenario_seeds(workload: Workload, seed: int) -> List[int]:
    """Scenario seeds for a workload seed (same seed, same seeds)."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [
        rng.randrange(1, 2**31) for _ in range(workload.seeds_per_scenario)
    ]


def generate(
    workload: Workload, seed: int, scenario_dir: Path, tiny: bool = False
) -> List[dict]:
    """Scenario documents for one iteration, as plain dicts."""
    from repro.scenarios import find_scenario, load_scenario
    from repro.scenarios import scenario_to_dict

    seeds = scenario_seeds(workload, seed)
    if tiny:
        seeds = seeds[:1]
    docs = []
    for name in workload.scenarios:
        base = scenario_to_dict(
            load_scenario(find_scenario(name, scenario_dir))
        )
        for section, values in workload.sizes.get(name, {}).items():
            base[section].update(values)
        if tiny:
            base["run"]["max_periods"] = min(
                base["run"]["max_periods"], TINY_RUN["max_periods"]
            )
            base["run"]["duration_s"] = TINY_RUN["duration_s"]
            topo = base["topology"]
            for key, cap in TINY_TOPOLOGY.items():
                topo[key] = min(topo[key], cap)
        for s in seeds:
            doc = dict(base, run=dict(base["run"], seed=s))
            docs.append(doc)
    return docs


def warmup_cases(cases: List[Case]) -> List[Case]:
    """The first case of each scenario: a short pass before timing."""
    seen = set()
    out = []
    for case in cases:
        if case.scenario not in seen:
            seen.add(case.scenario)
            out.append(case)
    return out


def compile_cases(docs: List[dict]) -> List[Case]:
    """Validate and compile generated scenario documents."""
    from repro.scenarios import compile_scenario, scenario_from_dict

    cases = []
    for doc in docs:
        compiled = compile_scenario(scenario_from_dict(doc))
        seed = doc["run"]["seed"]
        cases.append(
            Case(
                label=f"{doc['name']}@{seed}",
                scenario=doc["name"],
                seed=seed,
                compiled=compiled,
            )
        )
    return cases
