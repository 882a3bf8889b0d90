"""Float sums that do not depend on the Python version.

From Python 3.12 on, the built-in ``sum()`` compensates float rounding
(Neumaier summation), so the same floats can sum to different bits on
different interpreters.  Every float total that reaches an event time,
a decision, a reported metric or a golden is taken with
:func:`left_sum` instead.
"""

from __future__ import annotations

from typing import Any, Iterable


def left_sum(values: Iterable[Any], start: Any = 0) -> Any:
    """``start + v0 + v1 + ...``, one plain addition per value, left
    to right: what the built-in ``sum()`` computed before Python 3.12.

    With no values the result is ``start`` itself, the int ``0`` by
    default, as for ``sum()``.
    """
    total = start
    for value in values:
        total += value
    return total
