"""Plain-text reporting of experiment results.

The benchmarks print, for every reproduced figure, a table whose rows mirror
the series the paper plots (protocol per line, one column per x-axis value).
The same formatting helpers are used by the examples.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Mapping[str, Sequence[object]],
    value_format: str = "{:.1f}",
) -> str:
    """Render a small fixed-width table.

    Parameters
    ----------
    title:
        Heading line (e.g. ``"Figure 3(b): throughput (KTx/s), 50% read-only"``).
    columns:
        X-axis labels (e.g. node counts).
    rows:
        Mapping of series name (protocol) to one value per column.
    """
    header_cells = ["series"] + [str(column) for column in columns]
    body_rows: List[List[str]] = []
    for name, values in rows.items():
        rendered = []
        for value in values:
            if value is None:
                rendered.append("-")
            elif isinstance(value, str):
                rendered.append(value)
            else:
                rendered.append(value_format.format(value))
        body_rows.append([name] + rendered)

    widths = [
        max(len(row[index]) for row in [header_cells] + body_rows)
        for index in range(len(header_cells))
    ]

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    separator = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [title, separator, render_row(header_cells), separator]
    lines.extend(render_row(row) for row in body_rows)
    lines.append(separator)
    return "\n".join(lines)


def speedup_rows(
    baseline: Mapping[object, float], others: Mapping[str, Mapping[object, float]]
) -> Dict[str, List[Optional[float]]]:
    """Compute per-column speedups of ``baseline`` over each series in ``others``."""
    columns = list(baseline)
    rows: Dict[str, List[Optional[float]]] = {}
    for name, series in others.items():
        row: List[Optional[float]] = []
        for column in columns:
            other = series.get(column)
            base = baseline.get(column)
            if other in (None, 0) or base is None:
                row.append(None)
            else:
                row.append(base / other)
        rows[name] = row
    return rows

