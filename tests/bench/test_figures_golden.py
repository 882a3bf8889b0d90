"""Golden output of the nine ``repro run`` figure reproductions.

Pins, per figure, the sha256 of the exact text ``repro run <figure>``
prints plus every table cell *as computed*: numbers are stored as their
``repr`` (exact for floats), captured from the rows handed to
:func:`repro.bench.reporting.format_table` before rounding.  A one-ulp
change in a model constant that the printed table rounds away still
fails, and the message names the cell that moved (``fig12 row
'bushy82 88c 10000F' column 'multi T/s': ...``).  The digest then
catches a change in layout or rounding alone.

Tier-1 runs the six figures that take about a second or less in
process; ``benchmarks/test_slow_figures_golden.py`` runs the other
three (fig09, fig11, fig15b) against the same fixture.

Regenerate (only when a change is *meant* to move a figure)::

    PYTHONPATH=src python tests/bench/test_figures_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, List, Sequence
from unittest import mock

import pytest

from repro import cli
from repro.bench import reporting

FIXTURE = Path(__file__).with_name("figures_golden.json")
FAST_FIGURES = ("fig01", "fig06", "fig10", "fig12", "fig13", "fig15a")
SLOW_FIGURES = ("fig09", "fig11", "fig15b")


def _cell(value: object) -> str:
    return value if isinstance(value, str) else repr(value)


def golden_record(name: str) -> Dict[str, object]:
    """Run ``repro run <name>`` (default machine) in this process.

    Returns the printed text's digest, the table header and the rows
    of unrounded cells.
    """
    tables: List[List[List[str]]] = []
    render = reporting.format_table

    def spy(headers: Sequence[str], rows, title=None) -> str:
        rows = [list(row) for row in rows]
        tables.append([list(headers)] + [[_cell(c) for c in r] for r in rows])
        return render(headers, rows, title=title)

    buf = io.StringIO()
    with mock.patch.object(cli, "format_table", spy), mock.patch.object(
        reporting, "format_table", spy
    ), contextlib.redirect_stdout(buf):
        code = cli.main(["run", name])
    assert code == 0 and len(tables) == 1
    header, *rows = tables[0]
    return {
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "header": header,
        "rows": rows,
        "text": buf.getvalue(),
    }


def load_golden() -> Dict[str, Dict[str, object]]:
    return json.loads(FIXTURE.read_text())


def assert_matches_golden(name: str) -> None:
    """Compare cell by cell first, so the message names what moved."""
    want = load_golden()[name]
    got = golden_record(name)
    header = want["header"]
    assert got["header"] == header, f"{name}: header {got['header']!r}"
    assert len(got["rows"]) == len(want["rows"]), (
        f"{name}: {len(got['rows'])} table rows, golden has "
        f"{len(want['rows'])}"
    )
    for want_row, got_row in zip(want["rows"], got["rows"]):
        for column, want_cell, got_cell in zip(header, want_row, got_row):
            assert got_cell == want_cell, (
                f"{name} row {want_row[0]!r} column {column!r}: "
                f"{want_cell} -> {got_cell}"
            )
        assert got_row == want_row, f"{name} row {want_row[0]!r}"
    assert got["sha256"] == want["sha256"], (
        f"{name}: cells match but the printed text differs:\n{got['text']}"
    )


def test_fixture_covers_every_figure():
    assert sorted(load_golden()) == sorted(FAST_FIGURES + SLOW_FIGURES)
    assert sorted(FAST_FIGURES + SLOW_FIGURES) == sorted(cli._FIGURES)


@pytest.mark.parametrize("name", FAST_FIGURES)
def test_figure_matches_golden(name):
    assert_matches_golden(name)


if __name__ == "__main__":
    # One table row per line keeps a moved cell a one-line diff.
    entries = []
    for name in sorted(FAST_FIGURES + SLOW_FIGURES):
        record = golden_record(name)
        rows = ",\n   ".join(json.dumps(row) for row in record["rows"])
        entries.append(
            f' "{name}": {{\n  "sha256": "{record["sha256"]}",\n'
            f'  "header": {json.dumps(record["header"])},\n'
            f'  "rows": [\n   {rows}\n  ]\n }}'
        )
    FIXTURE.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    print(f"wrote {FIXTURE} ({len(entries)} figures)")
