"""Commit-phase breakdown — the paper's "not shown" figure.

Section 4.2, on volrend: "A breakdown of this commit time (not shown)
indicates that the majority of the time is spent probing directories
that are in a processor's Sharing Vector."  Our commit engine records
the three phases (TID acquisition, probe+mark until validated,
commit-to-ack), so we can actually show that breakdown — and assert the
paper's characterization of the commit-bound applications.
"""

from runner_env import bench_cache, bench_jobs

from repro import SystemConfig
from repro.analysis import format_table, run_points

N = 32
SCALE = 0.5
APPS = ("volrend", "equake", "barnes", "swim", "water_nsquared")


def _collect():
    # Five of Table 3's specs: with the cache on, one artefact's runs
    # serve the other's.
    config = SystemConfig(n_processors=N)
    results, _ = run_points({app: (app, config) for app in APPS},
                            scale=SCALE, jobs=bench_jobs(), cache=bench_cache())
    return results


def test_bench_commit_phases(benchmark, save_artifact):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    rows = []
    fractions = {}
    for app, result in results.items():
        phases = result.commit_phases
        tid, probe, ack = phases["tid"], phases["probe"], phases["ack"]
        total = max(1, tid + probe + ack)
        fractions[app] = {"tid": tid / total, "probe": probe / total,
                          "ack": ack / total}
        rows.append([
            app,
            f"{tid:,}",
            f"{probe:,}",
            f"{ack:,}",
            f"{probe / total * 100:.0f}%",
        ])
    save_artifact(
        "commit_phases",
        f"Commit-phase breakdown @ {N} CPUs (cycles; cf. Section 4.2 on "
        f"volrend)\n"
        + format_table(
            ["application", "TID acq", "probe+mark", "commit+acks",
             "probe share"],
            rows,
        ),
    )

    # The paper's claim: volrend's commit time is probe-dominated.
    assert fractions["volrend"]["probe"] > 0.5
    assert fractions["volrend"]["probe"] > fractions["volrend"]["tid"]
    assert fractions["volrend"]["probe"] > fractions["volrend"]["ack"]
    # equake, the other commit-bound app, behaves the same way.
    assert fractions["equake"]["probe"] > 0.4
