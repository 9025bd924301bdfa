"""Text and JSON reporters for a :class:`~repro.lint.finding.LintResult`."""

from __future__ import annotations

import json

from repro.lint.finding import LintResult


def format_text(result: LintResult, verbose: bool = False) -> str:
    lines = [finding.render() for finding in result.findings]
    if verbose:
        lines.extend(
            f"{finding.render()} [suppressed]"
            for finding in result.suppressed
        )
    status = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    lines.append(
        f"repro lint: {status} — {result.modules_scanned} modules scanned "
        f"({len(result.sim_path_modules)} sim-path), "
        f"{len(result.rules_run)} rules, "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    return json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n"
