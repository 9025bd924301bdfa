"""Analysis and reporting: paper-style tables and figure data.

Renders simulation results in the shape of the paper's artefacts —
ASCII tables for Table 2/3, stacked-breakdown rows for Figures 6/7,
latency-sweep series for Figure 8, traffic rows for Figure 9 — so the
benchmark harness can print directly comparable output.
"""

from repro.analysis.tables import (
    format_breakdown_figure,
    format_table,
    format_traffic_figure,
)
from repro.analysis.experiments import run_points
from repro.analysis.report import render_report

__all__ = [
    "format_breakdown_figure",
    "format_table",
    "format_traffic_figure",
    "render_report",
    "run_points",
]
