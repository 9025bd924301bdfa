"""Figure 7 — scaling from 8 to 64 CPUs, normalized to 1 CPU.

The paper's headline result.  Shape targets asserted here (the OCR
garbles the exact speedup labels; the known bands are 32-CPU speedups of
roughly 11-32 and 64-CPU speedups of roughly 16-57):

* every application speeds up monotonically through 64 CPUs;
* the near-linear group (SPECjbb2000, SVM Classify, swim, barnes,
  water-spatial, tomcatv) reaches strong 64-CPU speedups;
* equake and volrend are the commit-bound laggards, with commit time a
  visibly growing fraction at high processor counts;
* Cluster GA is violation-bound;
* for the well-behaved majority, commit + violation time stays a small
  fraction of execution time even at 64 CPUs (paper: < 5%).
"""

from runner_env import bench_cache, bench_jobs

from repro import APP_PROFILES, SystemConfig
from repro.analysis import format_breakdown_figure, run_points

COUNTS = (1, 8, 16, 32, 64)
SCALE = 1.0


def _collect():
    # One grid over every (app, count): the pool is never left waiting
    # on one app's 64-CPU run while the next app's jobs could start.
    results, _ = run_points(
        {(app, n): (app, SystemConfig(n_processors=n))
         for app in APP_PROFILES for n in COUNTS},
        scale=SCALE, jobs=bench_jobs(), cache=bench_cache(),
    )
    return {app: {n: results[app, n] for n in COUNTS} for app in APP_PROFILES}


def test_bench_fig7(benchmark, save_artifact):
    all_results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    series = {}
    speedups = {}
    for app, results in all_results.items():
        for n in COUNTS[1:]:
            label = f"{app}@{n}"
            series[label] = results[n].breakdown_fractions()
            speedups[label] = results[n].speedup_over(results[1])
    save_artifact(
        "fig7_scaling",
        format_breakdown_figure(
            "Figure 7 — execution time vs CPU count (normalized to 1 CPU)",
            series,
            speedups,
        ),
    )

    s64 = {app: r[64].speedup_over(r[1]) for app, r in all_results.items()}
    s32 = {app: r[32].speedup_over(r[1]) for app, r in all_results.items()}

    # Monotone scaling for every application.
    for app, results in all_results.items():
        previous = 0.0
        for n in COUNTS[1:]:
            current = results[n].speedup_over(results[1])
            assert current > previous * 0.95, (app, n)  # allow tiny noise
            previous = current

    # The strong scalers reach high 64-CPU speedups.
    for app in ("specjbb2000", "svm_classify", "swim", "barnes",
                "water_spatial", "tomcatv"):
        assert s64[app] > 25, (app, s64[app])
        assert s32[app] > 15, (app, s32[app])

    # Everyone achieves a meaningful speedup at 64 CPUs.
    assert min(s64.values()) > 10

    # equake and volrend: smallest transactions, commit-bound at scale.
    laggards = sorted(s64, key=s64.get)[:4]
    assert "equake" in laggards
    assert "volrend" in laggards
    for app in ("equake", "volrend"):
        commit64 = all_results[app][64].breakdown_fractions()["commit"]
        commit8 = all_results[app][8].breakdown_fractions()["commit"]
        assert commit64 > commit8  # commit share grows with CPUs
        assert commit64 > 0.10

    # Cluster GA is the violation-bound application.
    viol = {
        app: r[64].breakdown_fractions()["violation"]
        for app, r in all_results.items()
    }
    assert max(viol, key=viol.get) == "cluster_ga"

    # Paper: commit + violation < ~5% for the well-behaved majority.
    quiet = 0
    for app, results in all_results.items():
        breakdown = results[64].breakdown_fractions()
        if breakdown["commit"] + breakdown["violation"] < 0.08:
            quiet += 1
    assert quiet >= 7

    # water-spatial scales better than water-nsquared (less sharing).
    assert s64["water_spatial"] > s64["water_nsquared"]
