"""ASCII rendering of paper-style tables and figures."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.result import BREAKDOWN_KEYS


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A plain monospace table with right-padded columns."""
    columns = [list(col) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(str(cell)) for cell in col) for col in columns]
    def fmt_row(cells):
        return "  ".join(str(cell).ljust(width) for cell, width in zip(cells, widths))
    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(row) for row in rows)
    return "\n".join(lines)


def format_breakdown_figure(
    title: str,
    series: Dict[str, Dict[str, float]],
    speedups: Dict[str, float] | None = None,
) -> str:
    """Figure 6/7-style rows: one line per configuration with the
    normalized execution-time components and an optional speedup label.

    ``series`` maps a row label (e.g. "barnes@8") to its breakdown
    fractions.
    """
    headers = ["config"] + list(BREAKDOWN_KEYS) + (["speedup"] if speedups else [])
    rows = []
    for label, breakdown in series.items():
        row = [label] + [f"{breakdown.get(k, 0.0) * 100:5.1f}%" for k in BREAKDOWN_KEYS]
        if speedups:
            row.append(f"{speedups.get(label, 0.0):5.1f}x")
        rows.append(row)
    return f"{title}\n" + format_table(headers, rows)


def format_traffic_figure(title: str, series: Dict[str, Dict[str, float]]) -> str:
    """Figure 9-style rows: bytes/instruction by traffic class."""
    classes = ("commit", "miss", "writeback", "overhead")
    headers = ["app"] + [f"{c} B/instr" for c in classes] + ["total"]
    rows = []
    for label, by_class in series.items():
        values = [by_class.get(c, 0.0) for c in classes]
        rows.append(
            [label]
            + [f"{v:.4f}" for v in values]
            + [f"{sum(values):.4f}"]
        )
    return f"{title}\n" + format_table(headers, rows)
