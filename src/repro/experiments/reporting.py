"""Plain-text table rendering for experiment results.

The benchmark harness prints the same rows/series the paper's figures plot;
this module owns the formatting so benchmarks, examples and tests all produce
identical, diff-friendly output.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Union

from ..reporting.rows import all_columns

__all__ = ["format_table", "format_figure", "print_figure"]

Number = Union[int, float]
Row = Mapping[str, Union[str, Number]]


def _format_value(value: Union[str, Number]) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.2f}"


def format_table(rows: Sequence[Row], columns: Sequence[str] = None) -> str:
    """Render rows as an aligned fixed-width text table.

    When ``columns`` is omitted, the union of all rows' keys is used (in
    first-appearance order), so ragged rows — e.g. per-job progress columns
    that only exist for the larger variants of a sweep — are never dropped.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = all_columns(rows)
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        rendered.append([_format_value(row.get(column, "")) for column in columns])
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(rendered):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_figure(title: str, rows: Sequence[Row], columns: Sequence[str] = None,
                  notes: Iterable[str] = ()) -> str:
    """Render a titled figure table plus free-form notes."""
    parts = [f"== {title} =="]
    parts.append(format_table(rows, columns))
    for note in notes:
        parts.append(f"  note: {note}")
    return "\n".join(parts)


def print_figure(title: str, rows: Sequence[Row], columns: Sequence[str] = None,
                 notes: Iterable[str] = ()) -> None:
    """Print a figure table (used by the benchmark harness)."""
    print()
    print(format_figure(title, rows, columns, notes))

