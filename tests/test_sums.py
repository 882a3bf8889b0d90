"""``repro.sums.left_sum``: the built-in ``sum()`` of Python 3.11."""

from __future__ import annotations

import math

from repro.sums import left_sum


def test_adds_left_to_right_without_compensation():
    values = [1e16, 1.0, -1e16]
    assert left_sum(values) == 0.0
    assert math.fsum(values) == 1.0
    assert left_sum([0.1] * 10) == 0.9999999999999999


def test_empty_sum_is_start():
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert type(left_sum([], 0.0)) is float


def test_matches_plain_addition_from_start():
    values = [0.3, 2, -0.0, 1e-17]
    total = 5
    for value in values:
        total += value
    assert left_sum(values, 5) == total
    assert left_sum(iter(values), 5) == total
