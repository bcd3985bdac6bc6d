"""Plain-text table rendering for experiment harness output.

The benchmark harness prints paper-shaped rows; this module renders them
as aligned monospace tables so ``repro experiment fig12`` output can be
eyeballed against the paper's figures.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    ncols = len(headers)
    for i, row in enumerate(str_rows):
        if len(row) != ncols:
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {ncols} (headers={headers!r})"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class Table:
    """An accumulating table: add rows as an experiment sweeps parameters."""

    headers: Sequence[str]
    title: str | None = None
    rows: list[list[object]] = field(default_factory=list)

    def add(self, *cells: object) -> None:
        """Append one row; must match the header arity."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append(list(cells))

    def render(self) -> str:
        """Render the accumulated rows (see :func:`format_table`)."""
        return format_table(self.headers, self.rows, title=self.title)

    def column(self, name: str) -> list[object]:
        """Return all values of the named column."""
        try:
            idx = list(self.headers).index(name)
        except ValueError as exc:
            raise KeyError(f"no column {name!r} in {list(self.headers)}") from exc
        return [row[idx] for row in self.rows]
