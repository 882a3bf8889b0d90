"""The three slow figure reproductions against the figure golden.

``tests/bench/test_figures_golden.py`` pins all nine ``repro run``
figures in ``tests/bench/figures_golden.json`` but runs only the six
that take about a second; this module runs the other three (fig09,
fig11, fig15b, ~2 s each) with the same cell-by-cell comparison.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_GOLDEN_TEST = (
    pathlib.Path(__file__).parent.parent
    / "tests"
    / "bench"
    / "test_figures_golden.py"
)
_spec = importlib.util.spec_from_file_location(
    "figures_golden", _GOLDEN_TEST
)
figures_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(figures_golden)


@pytest.mark.parametrize("name", figures_golden.SLOW_FIGURES)
def test_slow_figure_matches_golden(name):
    figures_golden.assert_matches_golden(name)
