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
from repro.analysis.experiments import (
    run_app,
    run_apps,
    run_latency_sweep,
    run_scaling,
)
from repro.analysis.report import render_report
from repro.analysis.sweep import Sweep, SweepPoint

__all__ = [
    "Sweep",
    "SweepPoint",
    "format_breakdown_figure",
    "format_table",
    "format_traffic_figure",
    "render_report",
    "run_app",
    "run_apps",
    "run_latency_sweep",
    "run_scaling",
]
