"""Pinned figure tables: everything ``python -m repro report --fast`` prints.

``figure_tables.json`` holds Tables I and II as text and, for every
figure table of the fast-set report (figs 2, 4, 5, 10-16, the Sec. VII-E
overhead and the four ablations), its columns and each row's label and
values.  The test compares every value exactly, so any change that moves
a reported number -- intended or not -- shows up as a failing test and,
once accepted, as a reviewed diff to the file.

The file is regenerated only by this command, from the repository root::

    PYTHONPATH=src python -m tests.golden.test_figure_tables --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.experiments import tables
from repro.experiments.common import FigureData
from repro.experiments.report import figure_tables
from repro.experiments.runner import FAST_WORKLOADS, ExperimentRunner

GOLDEN = Path(__file__).with_name("figure_tables.json")

TEXT_TABLES = {
    "Table I": tables.format_table1,
    "Table II": tables.format_table2,
}
FIGURES = (
    "fig2", "fig4", "fig5", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "sec7e", "ablation-mtu-share",
    "ablation-consolidation", "ablation-aniso-cap", "ablation-internal-bw",
)


def _pinned(data: FigureData) -> Dict[str, Any]:
    return {
        "columns": list(data.columns),
        "rows": [[row.label, dict(row.values)] for row in data.rows],
    }


def report_tables() -> Dict[str, Any]:
    """Every table of the fast-set report, keyed by its name."""
    pinned: Dict[str, Any] = {name: text() for name, text in TEXT_TABLES.items()}
    runner = ExperimentRunner(FAST_WORKLOADS)
    for data, _precision in figure_tables(runner):
        pinned[data.figure] = _pinned(data)
    return pinned


@pytest.fixture(scope="module")
def current():
    return report_tables()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_pinned_tables_are_the_golden_keys(current, golden):
    assert list(current) == list(golden) == [*TEXT_TABLES, *FIGURES]


@pytest.mark.parametrize("name", [*TEXT_TABLES, *FIGURES])
def test_table_matches_golden(current, golden, name):
    assert current[name] == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.golden.test_figure_tables --regenerate")
    GOLDEN.write_text(
        json.dumps(report_tables(), indent=1, allow_nan=False) + "\n"
    )
    print(f"wrote {GOLDEN}")
