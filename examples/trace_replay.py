#!/usr/bin/env python3
"""Program capture and replay: bring-your-own-workload support.

Materializes a generated workload into a JSON program file (the
``ConformProgram`` format that counterexample files also use), then
replays the *identical* transaction schedule on two different machines —
the scalable directory protocol and the small-scale token baseline — for
an apples-to-apples architecture comparison.

Run:  python examples/trace_replay.py
"""

import json
import tempfile
from pathlib import Path

from repro import ScalableTCCSystem, SystemConfig, app_workload
from repro.conform import ConformProgram

N_PROCS = 16
APP = "water_nsquared"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / f"{APP}.json"

        workload = app_workload(APP, scale=0.25)
        program = ConformProgram(N_PROCS, workload.schedules(N_PROCS))
        trace_path.write_text(json.dumps(program.to_dict()))
        size_kb = trace_path.stat().st_size / 1024
        print(f"captured {APP} @ {N_PROCS} procs -> "
              f"{trace_path.name} ({size_kb:.0f} KB)")

        results = {}
        for backend in ("scalable", "token"):
            replay = ConformProgram.from_dict(json.loads(trace_path.read_text()))
            system = ScalableTCCSystem(
                SystemConfig(n_processors=N_PROCS, commit_backend=backend)
            )
            results[backend] = system.run(replay.to_workload()).summary()

        print(f"\nidentical schedule, two machines:")
        for backend, result in results.items():
            breakdown = result.breakdown_fractions()
            print(f"  {backend:9s}: {result.cycles:>10,} cycles "
                  f"(commit {breakdown['commit'] * 100:.1f}%, "
                  f"violations {result.total_violations})")
        ratio = results["token"].cycles / results["scalable"].cycles
        print(f"\ntoken/scalable: {ratio:.2f}x at {N_PROCS} processors")


if __name__ == "__main__":
    main()
