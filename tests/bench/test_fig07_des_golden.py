"""Golden decision log of the profiled Fig. 7 DES adaptation run.

Pins what :func:`repro.bench.figures.fig07_des_adaptation` returns for
``max_periods=200`` (the size ``benchmarks/test_adaptation_perf.py``
times): the coordinator's full ``(rule, set_threads, set_n_queues)``
sequence, the final thread count and the final queue set.  The
benchmark asserts the same fixture, so its timing can never come from
the adaptation quietly behaving differently.

Regenerate (only when a change is *meant* to move decisions)::

    PYTHONPATH=src python tests/bench/test_fig07_des_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.figures import fig07_des_adaptation

FIXTURE = Path(__file__).with_name("fig07_des_golden.json")
MAX_PERIODS = 200


def golden_record(scenario) -> dict:
    """The pinned fields of a :class:`DesAdaptationScenario`."""
    return {
        "max_periods": MAX_PERIODS,
        "decisions": [list(d) for d in scenario.decisions],
        "final_threads": scenario.final_threads,
        "final_queues": list(scenario.final_queues),
    }


def load_golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fig07_des_adaptation_matches_golden():
    got = golden_record(fig07_des_adaptation(max_periods=MAX_PERIODS))
    assert got == load_golden()


if __name__ == "__main__":
    record = golden_record(fig07_des_adaptation(max_periods=MAX_PERIODS))
    decisions = record.pop("decisions")
    # One decision per line keeps a moved decision a one-line diff.
    rows = ",\n  ".join(json.dumps(d) for d in decisions)
    head = json.dumps(record, indent=1)[:-2]
    FIXTURE.write_text(head + ',\n "decisions": [\n  ' + rows + "\n ]\n}\n")
    print(f"wrote {FIXTURE} ({len(decisions)} decisions)")
