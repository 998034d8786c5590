"""Shared result containers and table formatting for experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class FigureRow:
    """One row of a figure/table: a label plus named values."""

    label: str
    values: Dict[str, float]

    def get(self, column: str) -> float:
        if column not in self.values:
            raise KeyError(f"row {self.label!r} has no column {column!r}")
        return self.values[column]


@dataclass
class FigureData:
    """The regenerated data behind one paper figure or table."""

    figure: str
    title: str
    columns: List[str]
    rows: List[FigureRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    paper_reference: str = ""
    """What the paper reports for this figure, for EXPERIMENTS.md."""

    def add_row(self, label: str, **values: float) -> None:
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise ValueError(f"row {label!r} missing columns {missing}")
        self.rows.append(FigureRow(label=label, values=dict(values)))

    def column(self, name: str) -> List[float]:
        return [row.get(name) for row in self.rows]

    def mean(self, column: str) -> float:
        values = self.column(column)
        if not values:
            raise ValueError("no rows")
        return sum(values) / len(values)

    def maximum(self, column: str) -> float:
        values = self.column(column)
        if not values:
            raise ValueError("no rows")
        return max(values)

    def row(self, label: str) -> FigureRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(f"no row labelled {label!r}")

    def format_table(self, precision: int = 3) -> str:
        """Render as an aligned plain-text table."""
        header = ["workload"] + self.columns
        body = [
            [row.label] + [f"{row.values[c]:.{precision}f}" for c in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(str(cell)) for cell in column)
            for column in zip(header, *body)
        ]
        lines = [
            "  ".join(str(cell).ljust(width) for cell, width in zip(cells, widths))
            for cells in [header] + body
        ]
        separator = "  ".join("-" * width for width in widths)
        lines.insert(1, separator)
        return "\n".join(lines)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the conventional aggregate for speedup ratios)."""
    if not values:
        raise ValueError("no values")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= value
    return product ** (1.0 / len(values))
