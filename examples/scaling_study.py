#!/usr/bin/env python3
"""Scaling study: Figure 7 in miniature.

Runs a chosen application at 1/8/16/32 processors with fixed total work
and prints the paper-style stacked breakdown plus speedups.  Use the app
name as an argument to explore the suite, e.g.:

    python examples/scaling_study.py specjbb2000
    python examples/scaling_study.py volrend       # commit-bound
    python examples/scaling_study.py cluster_ga    # violation-bound
"""

import sys

from repro import APP_PROFILES, SystemConfig
from repro.analysis import format_breakdown_figure, run_points


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "barnes"
    if app not in APP_PROFILES:
        raise SystemExit(f"unknown app {app!r}; choose from {sorted(APP_PROFILES)}")

    counts = (1, 8, 16, 32)
    print(f"Running {app} at {counts} processors (fixed total work)...")
    results, _ = run_points(
        {n: (app, SystemConfig(n_processors=n)) for n in counts}, scale=0.5
    )

    series = {}
    speedups = {}
    for n, result in results.items():
        label = f"{app}@{n}"
        series[label] = result.breakdown_fractions()
        speedups[label] = result.speedup_over(results[1])

    print()
    print(format_breakdown_figure(
        f"Execution-time breakdown, {app} (cf. Figure 7)", series, speedups
    ))
    print()
    for n, result in results.items():
        print(f"  {n:>2} CPUs: {result.cycles:>12,} cycles, "
              f"{result.total_violations:>4} violations, "
              f"{result.committed_transactions} commits")


if __name__ == "__main__":
    main()
