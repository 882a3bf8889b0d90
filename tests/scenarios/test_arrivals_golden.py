"""Golden byte-identity fixture for the arrival generators.

The fixture pins, bit for bit, what :class:`ArrivalProcess` produces:

- ``segments()`` lists for every modulation kind over short windows and
  one long window (digested) that crosses the 64 s streaming chunk;
- the first 60k arrivals of deterministic and Poisson streams started
  at several ``t0``, for every modulation kind (digested).

Any change to how envelopes are built or streamed must leave every
float unchanged.  ``arrival_stream(t0)``, the window-relative schedule
the DES engine consumes, is checked to be ``stream(t0)`` shifted by
``t0``.

Regenerate (only when an arrival change is *meant* to move numbers)::

    PYTHONPATH=src python tests/scenarios/test_arrivals_golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from pathlib import Path

import pytest

from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.schema import (
    ArrivalKind,
    ArrivalSpec,
    ModulationKind,
    ModulationSpec,
)

FIXTURE = Path(__file__).with_name("arrivals_golden.json")

# Rates are chosen so 60k arrivals of every slow envelope span more than
# 64 s (the streaming chunk) from any start time; the fast ON/OFF
# envelope is the open-loop benchmark's 2 ms / 2 ms burst.
ENVELOPES = {
    "none": (900.0, ModulationSpec()),
    "diurnal": (
        800.0,
        ModulationSpec(
            kind=ModulationKind.DIURNAL,
            period_s=10.0,
            low_factor=0.5,
            high_factor=1.5,
            steps=24,
        ),
    ),
    "onoff-fast": (
        5_000_000.0,
        ModulationSpec(kind=ModulationKind.ONOFF, on_s=0.002, off_s=0.002),
    ),
    "onoff-slow": (
        1500.0,
        ModulationSpec(kind=ModulationKind.ONOFF, on_s=0.5, off_s=0.5),
    ),
    "flash_crowd": (
        700.0,
        ModulationSpec(
            kind=ModulationKind.FLASH_CROWD,
            at_s=1.0,
            ramp_s=0.5,
            hold_s=2.0,
            factor=4.0,
            steps=8,
        ),
    ),
    "ramp": (
        700.0,
        ModulationSpec(
            kind=ModulationKind.RAMP,
            at_s=1.0,
            ramp_s=2.0,
            low_factor=0.5,
            high_factor=1.5,
            steps=8,
        ),
    ),
}
KINDS = (ArrivalKind.DETERMINISTIC, ArrivalKind.POISSON)
STREAM_T0 = (0.0, 0.012, 1.2345, 63.99)
STREAM_N = 60_000
SEED = 7
# (t0, horizon) windows whose segment lists are pinned; lists longer
# than FULL_LIST_MAX are pinned by count and digest.  The last window
# crosses the 64 s streaming chunk.
SEGMENT_WINDOWS = (
    (0.0, 0.05),
    (0.012, 0.05),
    (1.2345, 3.0),
    (63.99, 0.05),
    (0.0, 130.0),
)
FULL_LIST_MAX = 100
# Draws compared between arrival_stream(t0) and stream(t0).
RELATIVE_N = 2_000


def _proc(name, kind=ArrivalKind.DETERMINISTIC):
    rate, modulation = ENVELOPES[name]
    return ArrivalProcess(
        ArrivalSpec(kind=kind, rate=rate, modulation=modulation), seed=SEED
    )


def _digest(floats) -> str:
    floats = list(floats)
    return hashlib.sha256(struct.pack(f"<{len(floats)}d", *floats)).hexdigest()


def segment_records():
    out = {}
    for name in ENVELOPES:
        proc = _proc(name)
        windows = []
        for t0, h in SEGMENT_WINDOWS:
            segs = proc.segments(t0, h)
            row = {"t0": t0, "horizon": h, "n": len(segs)}
            if len(segs) <= FULL_LIST_MAX:
                row["segments"] = segs
            else:
                row["sha256"] = _digest(itertools.chain.from_iterable(segs))
            windows.append(row)
        out[name] = windows
    return out


def stream_records(name):
    rows = []
    for kind in KINDS:
        for t0 in STREAM_T0:
            times = list(
                itertools.islice(_proc(name, kind).stream(t0), STREAM_N)
            )
            rows.append(
                {
                    "kind": kind.value,
                    "t0": t0,
                    "n": len(times),
                    "first": times[0],
                    "last": times[-1],
                    "sha256": _digest(times),
                }
            )
    return rows


def current():
    return {
        "segments": segment_records(),
        "streams": {name: stream_records(name) for name in ENVELOPES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def _as_json(value):
    return json.loads(json.dumps(value))


def test_segments_match_golden(golden):
    assert _as_json(segment_records()) == golden["segments"]


@pytest.mark.parametrize("name", sorted(ENVELOPES))
def test_streams_match_golden(golden, name):
    assert stream_records(name) == golden["streams"][name]


@pytest.mark.parametrize("name", sorted(ENVELOPES))
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_arrival_stream_is_window_relative(name, kind):
    for t0 in STREAM_T0:
        relative = itertools.islice(
            _proc(name, kind).arrival_stream(t0), RELATIVE_N
        )
        absolute = itertools.islice(_proc(name, kind).stream(t0), RELATIVE_N)
        assert list(relative) == [t - t0 for t in absolute], t0


def test_rate_at_matches_golden_segments(golden):
    # rate_at is the first segment's rate at any instant.
    for name, windows in golden["segments"].items():
        proc = _proc(name)
        for window in windows:
            for start, _end, rate in window.get("segments", ()):
                assert proc.rate_at(start) == rate


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
