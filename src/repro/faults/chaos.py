"""Chaos harness: fuzz workloads under randomized fault plans.

Each case draws a random :class:`~repro.faults.plan.FaultPlan` (drops,
duplicates, delays, reorders, directory stalls, CPU pauses) and a small
high-contention workload, runs the hardened protocol to completion, and
checks the full correctness stack:

* the run *terminates* (the watchdog turns any hang into a
  :class:`~repro.faults.watchdog.WatchdogStall` diagnosis);
* serializability judged by the independent oracle (``verify=True``);
* system invariants (checked inside ``run()``);
* workload-level postconditions — exact counter values and committed
  transaction counts.

Everything is seeded: case ``i`` of a campaign is ``Random(seed0 + i)``
all the way down, so any failure line can be replayed with
``run_case(make_case(seed))``.

This module is intentionally *not* imported from ``repro.faults`` —
it imports the top-level ``repro`` package, which would cycle through
``repro.core.config`` → ``repro.faults.plan``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.core.config import SystemConfig
from repro.core.system import ScalableTCCSystem, SimulationTimeout
from repro.faults.plan import FaultPlan, NodeFault, PacketFault
from repro.faults.watchdog import WatchdogStall
from repro.workloads.base import Transaction, Workload
from repro.workloads.tm_patterns import ListSetWorkload, QueueWorkload

#: Hard backstop so a watchdog bug cannot hang the harness itself.
MAX_CYCLES = 50_000_000


class HotCounterWorkload(Workload):
    """Every processor increments one shared counter: maximal conflict,
    and the postcondition (counter == total increments) catches any
    lost or double-applied commit."""

    name = "hot-counter"

    def __init__(self, per_proc: int = 6, compute: int = 3) -> None:
        self.per_proc = per_proc
        self.compute = compute

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        return iter(
            Transaction(proc * 100 + i, [("c", self.compute), ("add", 0, 1)])
            for i in range(self.per_proc)
        )


def random_fault_plan(seed: int, n_nodes: int) -> FaultPlan:
    """A bounded-hostility random plan: enough faults to exercise every
    hardening path, probabilities capped so runs still terminate fast."""
    rng = random.Random(seed)
    packet_faults: List[PacketFault] = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("drop", "dup", "delay", "reorder"))
        classes = ()
        if rng.random() < 0.4:
            classes = tuple(
                rng.sample(("commit", "miss", "writeback"), rng.randint(1, 2))
            )
        packet_faults.append(PacketFault(
            kind,
            probability=round(rng.uniform(0.01, 0.10), 4),
            traffic_classes=classes,
            delay=rng.randrange(50, 400),
        ))
    node_faults: List[NodeFault] = []
    if rng.random() < 0.5:
        node_faults.append(NodeFault(
            "dir_stall", rng.randrange(n_nodes),
            start_cycle=rng.randrange(0, 4000),
            duration=rng.randrange(500, 4000),
        ))
    if rng.random() < 0.5:
        node_faults.append(NodeFault(
            "cpu_pause", rng.randrange(n_nodes),
            start_cycle=rng.randrange(0, 4000),
            duration=rng.randrange(500, 4000),
        ))
    return FaultPlan(
        packet_faults=tuple(packet_faults),
        node_faults=tuple(node_faults),
        seed=seed,
    )


@dataclass
class ChaosCase:
    """One replayable chaos run: workload + machine + fault plan."""

    seed: int
    workload_name: str
    n_processors: int
    expected_commits: int
    expected_counter: Optional[int]  # hot-counter only
    plan: FaultPlan
    #: Run with SystemConfig(paranoid=True): check the machine-wide
    #: protocol invariants (I1-I5) between engine slices.  Passive — the
    #: simulated event stream is bit-identical either way.
    paranoid: bool = False

    def build_workload(self) -> Workload:
        if self.workload_name == "hot-counter":
            return HotCounterWorkload(per_proc=6)
        if self.workload_name == "list-set":
            return ListSetWorkload(list_length=10, ops_per_proc=4,
                                   insert_ratio=0.5, seed=self.seed)
        if self.workload_name == "queue":
            return QueueWorkload(ops_per_proc=4, compute=10, seed=self.seed)
        raise ValueError(f"unknown chaos workload {self.workload_name!r}")

    def build_config(self) -> SystemConfig:
        return SystemConfig(
            n_processors=self.n_processors,
            seed=self.seed,
            ordered_network=False,
            fault_plan=self.plan,
            paranoid=self.paranoid,
            # Small workloads: tighten the watchdog so a genuine wedge is
            # diagnosed in seconds, not simulated megacycles.
            watchdog_interval=25_000,
            watchdog_stall_checks=4,
        )


def make_case(seed: int, paranoid: bool = False) -> ChaosCase:
    """Deterministically derive case ``seed`` (workload, size, plan)."""
    rng = random.Random(seed * 0x9E3779B9 + 1)
    workload_name = rng.choice(("hot-counter", "list-set", "queue"))
    n_procs = rng.choice((4, 4, 6, 8))
    if workload_name == "hot-counter":
        expected = n_procs * 6
        counter = n_procs * 6
    else:
        expected = n_procs * 4
        counter = None
    return ChaosCase(
        seed=seed,
        workload_name=workload_name,
        n_processors=n_procs,
        expected_commits=expected,
        expected_counter=counter,
        plan=random_fault_plan(seed, n_procs),
        paranoid=paranoid,
    )


@dataclass
class CaseResult:
    """Outcome of one chaos run."""

    seed: int
    workload: str
    n_processors: int
    outcome: str  # "ok" | "stall" | "timeout" | "check-failed" | "error"
    detail: str = ""
    cycles: int = 0
    committed: int = 0
    violations: int = 0
    fault_stats: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "workload": self.workload,
            "n_processors": self.n_processors,
            "outcome": self.outcome,
            "detail": self.detail,
            "cycles": self.cycles,
            "committed": self.committed,
            "violations": self.violations,
            "fault_stats": dict(self.fault_stats),
            "wall_seconds": self.wall_seconds,
        }


def run_case(case: ChaosCase) -> CaseResult:
    """Run one case; every failure mode becomes a structured outcome."""
    start = time.perf_counter()
    result = CaseResult(case.seed, case.workload_name, case.n_processors,
                        outcome="ok")
    system = ScalableTCCSystem(case.build_config())
    try:
        run = system.run(case.build_workload(), max_cycles=MAX_CYCLES,
                         verify=True)
    except WatchdogStall as exc:
        result.outcome = "stall"
        result.detail = str(exc).splitlines()[0]
        result.cycles = exc.report.get("cycle", system.engine.now)
    except SimulationTimeout as exc:
        result.outcome = "timeout"
        result.detail = str(exc)
        result.cycles = system.engine.now
    except Exception as exc:  # oracle verdict / invariant / protocol
        result.outcome = "error"
        result.detail = f"{type(exc).__name__}: {exc}".splitlines()[0]
        result.cycles = system.engine.now
    else:
        result.cycles = run.cycles
        result.committed = run.committed_transactions
        result.violations = run.total_violations
        if run.fault_stats is not None:
            result.fault_stats = run.fault_stats.as_dict()
        failures = []
        if run.committed_transactions != case.expected_commits:
            failures.append(
                f"committed {run.committed_transactions}, "
                f"expected {case.expected_commits}"
            )
        if case.expected_counter is not None:
            counter = run.memory_image.get(0, [0])[0]
            if counter != case.expected_counter:
                failures.append(
                    f"counter {counter}, expected {case.expected_counter}"
                )
        if failures:
            result.outcome = "check-failed"
            result.detail = "; ".join(failures)
    if system.fault_stats is not None and not result.fault_stats:
        result.fault_stats = system.fault_stats.as_dict()
    result.wall_seconds = time.perf_counter() - start
    return result


def run_chaos(
    cases: int = 200,
    seed0: int = 0,
    progress=None,
    jobs: Optional[int] = 1,
    cache=None,
    full: bool = False,
    paranoid: bool = False,
) -> Dict[str, Any]:
    """Run a campaign of ``cases`` seeded chaos runs; return a report.

    Cases are independent (case ``i`` is a pure function of
    ``seed0 + i``), so ``jobs`` > 1 (or None for all cores) fans them
    out over the :mod:`repro.runner` process pool and ``cache``
    memoizes case outcomes on disk — a warm re-run of an unchanged
    campaign replays from cache in milliseconds (cached cases report
    ``wall_seconds`` 0).  A case that crashes its worker is re-run
    alone in a fresh one-worker pool, then quarantined as an ``error``
    case rather than killing the campaign; the cases lost with the
    broken pool complete normally.

    The report carries the summary, the failures, and the runner/cache
    accounting; the full per-case ``results`` list (25k lines of JSON
    for a 1000-case campaign) is included only with ``full=True``.
    """
    from repro.runner import JobSpec, run_jobs

    # paranoid rides in workload_args so it reaches the worker-side
    # make_case() *and* keys the cache (a paranoid pass must not be
    # satisfied by a cached non-paranoid run).
    case_args = {"paranoid": True} if paranoid else None
    specs = [JobSpec(kind="chaos", seed=seed0 + i, workload_args=case_args,
                     label=f"chaos {seed0 + i}")
             for i in range(cases)]

    results: List[CaseResult] = [None] * cases  # type: ignore[list-item]

    def on_outcome(outcome) -> None:
        if outcome.ok:
            data = dict(outcome.payload["case"])
            if outcome.cached:
                data["wall_seconds"] = 0.0
        else:
            # Infrastructure failure (e.g. a quarantined worker crash):
            # surface it as a structured case failure, not an exception.
            data = CaseResult(
                specs[outcome.index].seed, "unknown", 0,
                outcome="error", detail=outcome.error,
            ).as_dict()
        case_result = CaseResult(**data)
        results[outcome.index] = case_result
        if progress is not None:
            progress(case_result)

    _, stats = run_jobs(specs, jobs=jobs, cache=cache, progress=on_outcome)

    failures = [r for r in results if not r.ok]
    totals: Dict[str, int] = {}
    outcome_counts: Dict[str, int] = {}
    for r in results:
        outcome_counts[r.outcome] = outcome_counts.get(r.outcome, 0) + 1
        for key, value in r.fault_stats.items():
            totals[key] = totals.get(key, 0) + value
    report = {
        "cases": cases,
        "seed0": seed0,
        "passed": len(results) - len(failures),
        "failed": len(failures),
        "outcome_counts": outcome_counts,
        "failures": [r.as_dict() for r in failures],
        "fault_totals": totals,
        "wall_seconds": sum(r.wall_seconds for r in results),
        "runner": stats.as_dict(),
    }
    if full:
        report["results"] = [r.as_dict() for r in results]
    return report


def format_report(report: Dict[str, Any]) -> str:
    """Render a campaign report for the terminal."""
    lines = [
        f"chaos: {report['passed']}/{report['cases']} passed "
        f"(seeds {report['seed0']}..{report['seed0'] + report['cases'] - 1}, "
        f"{report['wall_seconds']:.1f}s)"
    ]
    totals = {k: v for k, v in sorted(report["fault_totals"].items()) if v}
    if totals:
        lines.append("  faults injected: " + "  ".join(
            f"{k}={v}" for k, v in totals.items()
        ))
    runner = report.get("runner")
    if runner:
        line = (f"  runner: {runner['jobs']} worker(s), "
                f"{runner['executed']} executed, "
                f"{runner['from_cache']} from cache, "
                f"{runner['wall_s']:.2f}s elapsed")
        if runner.get("cache"):
            cache = runner["cache"]
            line += (f"; cache {cache['hits']} hit / {cache['misses']} miss"
                     f" / {cache['invalidations']} stale")
        lines.append(line)
    for failure in report["failures"]:
        lines.append(
            f"  FAIL seed={failure['seed']} {failure['workload']}"
            f"@{failure['n_processors']}: {failure['outcome']} "
            f"({failure['detail']}) — replay: "
            f"run_case(make_case({failure['seed']}))"
        )
    if not report["failures"]:
        lines.append(
            "  zero hangs, zero serializability violations, "
            "zero invariant failures"
        )
    return "\n".join(lines)
