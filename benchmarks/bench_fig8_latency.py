"""Figure 8 — impact of communication latency at 64 CPUs.

The x-axis is mesh cycles-per-hop.  Paper shape: applications with many
remote misses or heavy commit activity (equake, volrend) degrade by
about 50% when the link latency grows to 8 cycles, while applications
without significant remote communication (SPECjbb2000, swim) suffer
almost no degradation.
"""

from runner_env import bench_cache, bench_jobs

from repro import SystemConfig
from repro.analysis import format_table, run_points

LATENCIES = (1, 3, 6, 8)
N_PROCESSORS = 64
SCALE = 1.0
APPS = ("equake", "volrend", "barnes", "specjbb2000", "swim")


def _collect():
    results, _ = run_points(
        {(app, lat): (app, SystemConfig(n_processors=N_PROCESSORS,
                                        link_latency=lat))
         for app in APPS for lat in LATENCIES},
        scale=SCALE, jobs=bench_jobs(), cache=bench_cache(),
    )
    return {app: {lat: results[app, lat] for lat in LATENCIES} for app in APPS}


def test_bench_fig8(benchmark, save_artifact):
    all_results = benchmark.pedantic(_collect, rounds=1, iterations=1)

    headers = ["application"] + [f"{lat} cy/hop" for lat in LATENCIES]
    rows = []
    slowdown = {}
    for app, results in all_results.items():
        base = results[LATENCIES[0]].cycles
        slowdown[app] = {lat: r.cycles / base for lat, r in results.items()}
        rows.append(
            [app] + [f"{slowdown[app][lat]:.2f}x" for lat in LATENCIES]
        )
    save_artifact(
        "fig8_latency",
        format_table(["Figure 8 — slowdown vs 1 cy/hop @ 64 CPUs"]
                     + [""] * (len(LATENCIES)), [])
        + "\n" + format_table(headers, rows),
    )

    # Latency-sensitive applications degrade substantially by 8 cy/hop...
    for app in ("equake", "volrend"):
        assert slowdown[app][8] > 1.4, (app, slowdown[app])
        # ...and the degradation grows monotonically with latency.
        assert slowdown[app][8] > slowdown[app][6] > slowdown[app][3]

    # ...while compute-local applications barely notice.
    for app in ("specjbb2000", "swim"):
        assert slowdown[app][8] < 1.10, (app, slowdown[app])

    # Relative ordering: communication-heavy apps hurt more than barnes.
    assert slowdown["equake"][8] > slowdown["barnes"][8]
