#!/usr/bin/env python3
"""Quickstart: simulate the Scalable TCC machine on one application.

Builds a 16-processor directory-based machine with the paper's Table 2
parameters, runs a scaled-down `barnes` workload, and prints the
execution-time breakdown (the five components of Figures 6/7) plus the
speedup over a single processor.

Run:  python examples/quickstart.py
"""

from repro import ScalableTCCSystem, SystemConfig, app_workload


def main() -> None:
    app = "barnes"
    scale = 0.25

    print("Simulated machine (Table 2):")
    print(SystemConfig(n_processors=16).describe())
    print()

    results = {}
    for n_processors in (1, 16):
        config = SystemConfig(n_processors=n_processors)
        system = ScalableTCCSystem(config)
        # Every run is checked for serializability by the oracle.
        result = system.run(app_workload(app, scale=scale))
        results[n_processors] = result.summary()

    base, parallel = results[1], results[16]
    print(f"{app} @ 1 CPU : {base.cycles:>10,} cycles")
    print(f"{app} @ 16 CPUs: {parallel.cycles:>10,} cycles "
          f"(speedup {parallel.speedup_over(base):.1f}x)")
    print()

    print("Execution-time breakdown @ 16 CPUs:")
    for component, fraction in parallel.breakdown_fractions().items():
        bar = "#" * round(fraction * 50)
        print(f"  {component:<10} {fraction * 100:5.1f}%  {bar}")
    print()

    print(f"Committed transactions : {parallel.committed_transactions}")
    print(f"Violations (re-runs)   : {parallel.total_violations}")
    print(f"Remote traffic         : "
          f"{sum(parallel.bytes_per_instruction().values()):.3f} bytes/instruction")


if __name__ == "__main__":
    main()
