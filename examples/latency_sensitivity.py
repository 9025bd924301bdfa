#!/usr/bin/env python3
"""Link-latency sensitivity: Figure 8 in miniature.

Sweeps the mesh cycles-per-hop at a fixed processor count for a
communication-heavy application (equake) and a compute-local one
(specjbb2000).  The paper's result: equake/volrend degrade by ~50% going
to 8 cycles/hop while SPECjbb2000 and swim barely notice.

Run:  python examples/latency_sensitivity.py
"""

from repro import SystemConfig
from repro.analysis import run_points

LATENCIES = (1, 3, 6, 8)
N_PROCESSORS = 32


def main() -> None:
    for app in ("equake", "specjbb2000"):
        print(f"{app} @ {N_PROCESSORS} CPUs:")
        results, _ = run_points(
            {lat: (app, SystemConfig(n_processors=N_PROCESSORS,
                                     link_latency=lat))
             for lat in LATENCIES},
            scale=0.5,
        )
        base = results[LATENCIES[0]].cycles
        for latency, result in results.items():
            slowdown = result.cycles / base
            bar = "#" * round(slowdown * 30)
            print(f"  {latency} cycles/hop: {result.cycles:>12,} cycles "
                  f"({slowdown:4.2f}x)  {bar}")
        print()


if __name__ == "__main__":
    main()
