"""Full-run markdown report generation.

Bundles everything a single simulation can say — configuration,
execution-time breakdown, commit-phase breakdown, Table 3
characteristics, Figure 9 traffic, and the TAPE violation profile —
into one markdown document (the CLI's ``--report`` output).
"""

from __future__ import annotations

from typing import Optional

from repro.core.result import SimulationResult


def _md_table(headers, rows) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines.extend("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return "\n".join(lines)


def render_report(
    name: str,
    result: SimulationResult,
    tape_report: Optional[str] = None,
) -> str:
    """A self-contained markdown report for one run."""
    config = result.config
    summary = result.summary()
    sections = [f"# Simulation report — {name}", ""]

    sections.append("## Machine")
    sections.append("")
    sections.append("```")
    sections.append(config.describe())
    sections.append("```")
    sections.append("")

    sections.append("## Outcome")
    sections.append("")
    sections.append(_md_table(
        ["metric", "value"],
        [
            ["cycles", f"{summary.cycles:,}"],
            ["committed transactions", summary.committed_transactions],
            ["violations (re-runs)", summary.total_violations],
            ["committed instructions", f"{summary.committed_instructions:,}"],
            ["simulator events", f"{summary.events_executed:,}"],
        ],
    ))
    sections.append("")

    sections.append("## Execution-time breakdown")
    sections.append("")
    fractions = summary.breakdown_fractions()
    sections.append(_md_table(
        ["component", "fraction"],
        [[k, f"{v * 100:.1f}%"] for k, v in fractions.items()],
    ))
    sections.append("")

    phases = summary.commit_phases
    tid, probe, ack = phases["tid"], phases["probe"], phases["ack"]
    total_commit = tid + probe + ack
    if total_commit:
        sections.append("## Commit-phase breakdown")
        sections.append("")
        sections.append(_md_table(
            ["phase", "cycles", "fraction"],
            [
                ["TID acquisition", f"{tid:,}", f"{tid / total_commit * 100:.1f}%"],
                ["probe + mark", f"{probe:,}", f"{probe / total_commit * 100:.1f}%"],
                ["commit + acks", f"{ack:,}", f"{ack / total_commit * 100:.1f}%"],
            ],
        ))
        sections.append("")

    sections.append("## Transactional characteristics (Table 3 row)")
    sections.append("")
    sections.append(_md_table(
        ["tx size p90", "wr-set p90", "rd-set p90", "ops/word",
         "dirs/commit p90", "occupancy p90"],
        [[
            f"{summary.tx_size_p90:,.0f} inst",
            f"{summary.write_set_p90_kb:.2f} KB",
            f"{summary.read_set_p90_kb:.2f} KB",
            f"{summary.ops_per_word_written:.0f}",
            f"{summary.dirs_per_commit_p90:.0f}",
            f"{summary.occupancy_p90_cycles:,.0f} cy",
        ]],
    ))
    sections.append("")

    sections.append("## Remote traffic (Figure 9 row)")
    sections.append("")
    bpi = summary.bytes_per_instruction()
    sections.append(_md_table(
        ["commit", "miss", "writeback", "overhead", "total"],
        [[f"{bpi[k]:.4f}" for k in ("commit", "miss", "writeback", "overhead")]
         + [f"{sum(bpi.values()):.4f}"]],
    ))
    sections.append("")

    if tape_report:
        sections.append("## TAPE profile")
        sections.append("")
        sections.append("```")
        sections.append(tape_report)
        sections.append("```")
        sections.append("")

    return "\n".join(sections)
