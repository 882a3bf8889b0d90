"""Goldens under Python 3.12's compensated built-in ``sum()``.

From Python 3.12 on, ``sum()`` of floats is compensated (Neumaier), so
a golden-pinned value summed with the built-in would depend on the
interpreter.  :func:`compensated_sum` reproduces the 3.12 built-in
(ints, floats, other types and ``start`` included); with it patched
over ``builtins.sum`` a few zoo decision logs and one open-loop
scenario's windows and decisions must still match their goldens, so
an interpreter without the compensation catches a float ``sum()`` that
reaches a golden.
"""

from __future__ import annotations

import builtins
import json
import math
import sys
from pathlib import Path

import pytest

import test_zoo_decisions_golden as zoo

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "des"))
import test_open_loop_golden as open_loop  # noqa: E402

ZOO_NAMES = ("pipeline-smoke", "diurnal-perfmodel", "tree-bushy")
OPEN_LOOP_NAMES = ("poisson-underload",)
_LONG = (-(2**63), 2**63)


def compensated_sum(iterable, /, start=0):
    """The built-in ``sum()`` of CPython 3.12."""
    result = start
    items = iter(iterable)
    # Add plainly until the running result is an exact float.
    while type(result) is not float:
        for item in items:
            result = result + item
            break
        else:
            return result
    total, comp = result, 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                comp += (total - t) + item
            else:
                comp += (item - t) + total
            total = t
        elif type(item) is int and _LONG[0] <= item < _LONG[1]:
            total += float(item)
        else:
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            for item in items:
                result = result + item
            return result
    if comp and math.isfinite(comp):
        total += comp
    return total


@pytest.fixture
def compensated(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_compensated_sum_differs_from_left_to_right():
    values = [0.1] * 10
    plain = 0
    for value in values:
        plain += value
    assert compensated_sum(values) == 1.0 != plain
    assert compensated_sum([]) == 0 and type(compensated_sum([])) is int
    assert compensated_sum([1, 2], 3) == 6
    assert compensated_sum([[1], [2]], []) == [1, 2]


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_zoo_decisions_under_compensated_sum(compensated, name):
    golden = json.loads(zoo.FIXTURE.read_text())
    want = {
        label: record
        for label, record in golden.items()
        if label.split("|")[0] == name
    }
    assert zoo.scenario_records(name) == want


def test_open_loop_goldens_under_compensated_sum(compensated):
    golden = json.loads(open_loop.FIXTURE.read_text())
    windows = open_loop.window_records(OPEN_LOOP_NAMES)
    assert windows
    for label, got in windows.items():
        assert open_loop._without_events(got) == open_loop._without_events(
            golden["windows"][label]
        ), label
    decisions = open_loop.decision_records(OPEN_LOOP_NAMES)
    assert decisions == {
        name: golden["decisions"][name] for name in OPEN_LOOP_NAMES
    }
