"""Plain-text table rendering for the experiment reports.

Every benchmark prints its table/figure data with these helpers so the
output visually parallels the paper's Tables 1-3 and the Figure 3/4 series,
making paper-vs-measured comparison mechanical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

__all__ = ["Table", "format_value", "series_block"]

Cell = Union[str, int, float, None]


def format_value(value: Cell, precision: int = 2) -> str:
    """Render one cell: floats at fixed precision, None as '-'."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


class Table:
    """Column-aligned text table with an optional title."""

    def __init__(self, columns: Sequence[str], title: Optional[str] = None,
                 precision: int = 2):
        self.columns = list(columns)
        self.title = title
        self.precision = precision
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Cell, precision: Optional[int] = None) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns")
        p = precision if precision is not None else self.precision
        self.rows.append([format_value(cell, p) for cell in cells])

    def add_dict_row(self, record: Dict[str, Cell]) -> None:
        self.add_row(*[record.get(col) for col in self.columns])

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(col.ljust(widths[i])
                           for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.rjust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def series_block(title: str, x_label: str, x_values: Sequence[Cell],
                 series: Dict[str, Sequence[Cell]], precision: int = 2) -> str:
    """Render figure data: one x column plus one column per series."""
    table = Table([x_label, *series.keys()], title=title, precision=precision)
    for i, x in enumerate(x_values):
        table.add_row(x, *[values[i] for values in series.values()])
    return table.render()
