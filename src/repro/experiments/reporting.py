"""Textual reporting of experiment results.

The paper presents its evaluation as line plots (flow and runtime versus
a swept parameter).  This module prints the same series as ASCII tables
and CSV so the figures can be regenerated with any plotting tool.
"""

from __future__ import annotations

import io
from typing import Dict, List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.4g}",
    title: Optional[str] = None,
) -> str:
    """Render rows of dictionaries as a fixed-width ASCII table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    output = io.StringIO()
    if title:
        output.write(title + "\n")
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    output.write(header + "\n")
    output.write("  ".join("-" * width for width in widths) + "\n")
    for line in rendered:
        output.write("  ".join(cell.ljust(width) for cell, width in zip(line, widths)) + "\n")
    return output.getvalue().rstrip("\n")


def rows_to_csv(
    rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None
) -> str:
    """Render rows as CSV text (header + one line per row)."""
    rows = list(rows)
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(str(column) for column in columns)]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines)


def compare_algorithms(
    rows: Sequence[Mapping[str, object]],
    metric: str = "evaluated_flow",
) -> Dict[str, float]:
    """Average ``metric`` per algorithm over all sweep points."""
    totals: Dict[str, List[float]] = {}
    for row in rows:
        value = row.get(metric)
        if value is None:
            continue
        totals.setdefault(str(row.get("algorithm", "?")), []).append(float(value))
    return {name: sum(values) / len(values) for name, values in totals.items() if values}
