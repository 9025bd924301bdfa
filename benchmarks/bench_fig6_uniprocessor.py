"""Figure 6 — normalized uniprocessor execution-time breakdown.

The paper's point: on one processor a TCC system is equivalent to a
conventional uniprocessor — commit overhead averages about 3% and there
are no violations, so time splits between useful work, cache misses, and
(negligible) idle.
"""

from runner_env import bench_cache, bench_jobs

from repro import APP_PROFILES, SystemConfig
from repro.analysis import format_breakdown_figure, run_points

SCALE = 0.5


def _collect():
    config = SystemConfig(n_processors=1)
    results, _ = run_points({app: (app, config) for app in APP_PROFILES},
                            scale=SCALE, jobs=bench_jobs(), cache=bench_cache())
    return results


def test_bench_fig6(benchmark, save_artifact):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)
    series = {app: result.breakdown_fractions() for app, result in results.items()}
    save_artifact(
        "fig6_uniprocessor",
        format_breakdown_figure(
            "Figure 6 — normalized execution time @ 1 CPU", series
        ),
    )

    commit_fractions = []
    for app, result in results.items():
        breakdown = result.breakdown_fractions()
        # No other processors: nothing can violate a transaction.
        assert result.total_violations == 0, app
        assert breakdown["violation"] == 0.0, app
        # No barriers to wait on alone beyond negligible bookkeeping.
        assert breakdown["idle"] < 0.01, app
        # Per-app commit overhead stays single-digit percent.
        assert breakdown["commit"] < 0.10, app
        commit_fractions.append(breakdown["commit"])
        # The rest is useful work and cache misses.
        assert breakdown["useful"] + breakdown["miss"] > 0.88, app

    # Paper: "the only additional overhead of a TCC processor is
    # insignificant at around 3 percent on average".
    average_commit = sum(commit_fractions) / len(commit_fractions)
    assert average_commit < 0.05
