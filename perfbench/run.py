"""Repository benchmark: committed transactions per host second.

Run from the root of a checkout:

    python3 perfbench/run.py --workload volrend-32 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One run measures one workload for ``--seconds`` seconds.  With
``--trace 0`` it repeats the seeded simulation (or sweep), times each
repetition whole and reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 11
CALIBRATION_LOOPS = 1_000_000
RUNNER_METRICS = ("runner.overhead_s", "runner.job_s", "runner.jobs_run",
                  "runner.cache_hits")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed reference that
    is printed beside the metrics so runs on different days compare."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def setup_times(name: str, seed: int) -> List[float]:
    """Set-up seconds from ``SETUP_PROBES`` fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"),
             name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.split()[-1]))
    return times


def peak_rss_mb(who: int) -> float:
    """Peak resident memory of this process (``RUSAGE_SELF``) or of its
    largest reaped child (``RUSAGE_CHILDREN``); Linux reports KiB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def collect(workload: Any, seed: int, seconds: float, trace: bool):
    """Repeat the workload for ``seconds`` (at least once), stopping when
    one more repetition would overrun; with ``trace``, every untraced
    sample is followed by a traced one."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        gc.collect()
        plain.append(workload.run_once(seed))
        if trace:
            gc.collect()
            traced.append(workload.run_once(seed, trace=True))
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return plain, traced


def layer_metrics(plain: list, traced: list, names: List[str]) -> Dict[str, float]:
    from perfbench.tracer import derive

    metrics = dict.fromkeys(names, 0.0)
    untraced_s = statistics.median(s.sim_s for s in plain)
    per_sample = [derive(s.raw, untraced_s, s.sim_s)
                  for s in traced if s.raw is not None]
    if per_sample:
        for key in per_sample[0]:
            metrics[key] = statistics.median(m[key] for m in per_sample)
    if plain[0].runner is not None:
        for key in RUNNER_METRICS:
            metrics[key] = statistics.median(s.runner[key] for s in plain)
    return metrics


def run_one(args: argparse.Namespace, workload: Any, spec: Dict[str, Any]) -> int:
    from perfbench.tracer import attribution_errors

    calibration = statistics.median(calibrate() for _ in range(3))
    plain, traced = collect(workload, args.seed, args.seconds, bool(args.trace))
    # Read before the set-up probes, which are children too.
    rss = peak_rss_mb(workload.rusage)
    setup = setup_times(workload.name, args.seed)
    samples = plain + traced
    attempted = sum(s.attempted for s in samples)
    failures = [f for s in samples for f in s.failures]
    fingerprints = sorted({s.fingerprint for s in samples if not s.failures})
    errors = failures + [e for s in traced if s.raw is not None
                         for e in attribution_errors(s.raw)]
    if len(fingerprints) > 1:
        errors.append(f"{len(fingerprints)} different fingerprints across "
                      "repetitions of one seed")
    clean = [s for s in plain if not s.failures]
    commits = clean[0].commits if clean else 0
    # The median whole repetition: unlike the fastest, it does not drift
    # with the number of repetitions that fit in the run.
    wall = statistics.median(s.wall_s for s in clean) if clean else 0.0

    if args.trace:
        group = spec["per_layer"]
        values = layer_metrics(plain, traced, [m["name"] for m in group])
    else:
        group = spec["end_to_end"]
        values = {
            "tx_per_s": commits / wall if wall else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        }
    units = {m["name"]: m["unit"] for m in group}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"unlisted {sorted(set(values) - set(units))}")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"samples {len(plain)} untraced + {len(traced)} traced")
    print(f"fingerprint {fingerprints[0] if fingerprints else 'none'}")
    print(f"calibration_s {calibration:.6f}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"fail_frac {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted} simulations)")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Every workload in its own process (as the benchmark is run), then
    one table of every metric plus ``fail_frac``."""
    rows = []
    ok = True
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, f"{entry['value']:.6g}", entry["unit"]))
        rows.append((name, "fail_frac",
                     f"{result['failed'] / result['attempted']:.6g}",
                     f"ratio ({result['failed']}/{result['attempted']} simulations)"))
        rows.append((name, "correct", str(result["correct"]).lower(), ""))
    width = [max(len(row[i]) for row in rows) for i in range(3)] if rows else [0] * 3
    for row in rows:
        print(f"{row[0]:<{width[0]}}  {row[1]:<{width[1]}}  "
              f"{row[2]:>{width[2]}}  {row[3]}")
    return 0 if ok else 1


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"error: {source} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_one(args, WORKLOADS[args.workload], spec)


if __name__ == "__main__":
    sys.exit(main())
