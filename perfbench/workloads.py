"""The benchmark's workloads, built through the public API from one seed.

Every workload is a pure function of ``(seed, scale)``: the seed flows
into ``WorkloadProfile.seed`` (offset per application, so seed 0 is the
repository's stock profile), ``SystemConfig.seed`` (network jitter) and
``FaultPlan.seed``.  ``scale`` multiplies the transaction counts; the
benchmark runs at 1.0 and its tests shrink it.

One call of ``run_once`` is one measured sample: a single simulation for
the machine workloads, a whole ``run_jobs`` sweep for ``sweep-jobs2``.
Each sample is timed as one interval, counts its failed simulations and
carries a fingerprint of the simulated results, so repeated and traced
samples can be compared bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from repro import FaultPlan, PacketFault, ScalableTCCSystem, SystemConfig
from repro.runner import JobSpec, ResultSummary, build_workload, register_workload, run_jobs
from repro.workloads import APP_PROFILES, SyntheticWorkload

from perfbench.tracer import SpanTracer, add_raw, install, raw_layer_counts, verify_spans

N_CPUS = 32
#: Used only to confirm a claim, never while tuning a change.
HELD_OUT_SEED = 7919

#: 2% drop, 2% duplicate, 3% reorder; duplicates lag and held packets
#: are released within 100 cycles.
FAULT_RULES = (
    PacketFault("drop", 0.02),
    PacketFault("dup", 0.02, delay=100),
    PacketFault("reorder", 0.03, delay=100),
)

SWEEP_APPS = tuple(sorted(APP_PROFILES))
SWEEP_CPUS = (8, 16)
SWEEP_SCALE = 0.25
SWEEP_WORKERS = 2
SWEEP_FACTORY = "perfbench-app"


def seeded_profile(app: str, seed: int, scale: float = 1.0):
    """``app``'s profile with its workload seed derived from ``seed``."""
    profile = APP_PROFILES[app]
    if scale != 1.0:
        profile = profile.scaled(scale)
    return dataclasses.replace(profile, seed=profile.seed + 1000 * seed)


def make_app(config: SystemConfig, name: str, seed: int,
             scale: float = 1.0) -> SyntheticWorkload:
    """Runner workload factory: a seeded application profile."""
    return SyntheticWorkload(seeded_profile(name, seed, scale),
                             line_size=config.line_size,
                             word_size=config.word_size)


@dataclasses.dataclass
class Sample:
    """One measured unit of work and what it simulated."""

    #: Seconds of the timed interval: ``ScalableTCCSystem.run`` to its
    #: verified result, or the whole ``run_jobs`` call of a sweep.
    wall_s: float
    #: Seconds spent inside simulations: ``wall_s`` for one machine, the
    #: sum of the jobs' own wall times for a sweep.
    sim_s: float
    attempted: int
    commits: int
    failures: List[str]
    fingerprint: str
    #: Additive per-layer numbers (traced samples only).
    raw: Optional[Dict[str, float]] = None
    #: ``runner.*`` metrics (untraced sweep samples only).
    runner: Optional[Dict[str, float]] = None


def _describe(exc: BaseException) -> str:
    text = str(exc).splitlines()
    return f"{type(exc).__name__}: {text[0] if text else ''}"


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def result_fingerprint(result: Any) -> Dict[str, Any]:
    """Simulated results a speed-only change must leave untouched.

    Engine event counts are left out on purpose: a kernel refactor may
    change them without changing the model.
    """
    image = _canonical(sorted(result.memory_image.items()))
    return {
        "finish_cycle": max(s.total_cycles for s in result.proc_stats),
        "commits": result.committed_transactions,
        "violations": result.total_violations,
        "bytes": result.traffic.bytes_by_class,
        "memory_sha256": hashlib.sha256(image.encode()).hexdigest()[:16],
    }


class _FirstEvent(Exception):
    """Stops a run at its first engine event (setup probes only)."""


def _time_to_first_event(system: Any, workload: Any, start: float) -> float:
    def stop(*args: Any, **kwargs: Any) -> None:
        raise _FirstEvent(time.perf_counter())

    system.engine.run = stop
    try:
        system.run(workload)
    except _FirstEvent as reached:
        return reached.args[0] - start
    raise RuntimeError("the run returned without starting the engine")


def _run_machine(system: Any, workload: Any, trace: bool, **run_args: Any):
    """Run one built machine, timed from ``system.run`` to its verified
    result: ``(result, seconds, raw)``, ``raw`` being ``None`` untraced.
    A raised error propagates."""
    tracer = SpanTracer() if trace else None
    if tracer is not None:
        install(tracer, system)
    start = time.perf_counter()
    with verify_spans(tracer) if tracer is not None else nullcontext():
        result = system.run(workload, **run_args)
    wall = time.perf_counter() - start
    raw = (raw_layer_counts(tracer, system, result, wall)
           if tracer is not None else None)
    return result, wall, raw


class MachineWorkload:
    """One application profile on the 32-CPU machine."""

    #: Whose peak memory ``peak_rss_mb`` reads: the benchmark process.
    rusage = resource.RUSAGE_SELF

    def __init__(self, name: str, app: str, faults: bool = False) -> None:
        self.name = name
        self.app = app
        self.faults = faults

    def build(self, seed: int, scale: float = 1.0) -> Tuple[Any, Any, int]:
        profile = seeded_profile(self.app, seed, scale)
        plan = FaultPlan(packet_faults=FAULT_RULES, seed=seed) if self.faults else None
        config = SystemConfig(n_processors=N_CPUS, seed=seed, fault_plan=plan)
        workload = SyntheticWorkload(profile, line_size=config.line_size,
                                     word_size=config.word_size)
        return ScalableTCCSystem(config), workload, profile.total_transactions

    def setup_probe(self, seed: int, start: float) -> float:
        system, workload, _ = self.build(seed)
        return _time_to_first_event(system, workload, start)

    def run_once(self, seed: int, trace: bool = False, scale: float = 1.0) -> Sample:
        system, workload, expected = self.build(seed, scale)
        start = time.perf_counter()
        try:
            result, wall, raw = _run_machine(system, workload, trace, verify=True)
        except Exception as exc:  # a failed simulation is counted, not fatal
            wall = time.perf_counter() - start
            return Sample(wall, wall, 1, 0, [_describe(exc)], "")
        commits = result.committed_transactions
        failures = ([] if commits == expected
                    else [f"committed {commits} of {expected} transactions"])
        return Sample(wall, wall, 1, commits, failures,
                      _canonical(result_fingerprint(result)), raw=raw)


class SweepWorkload:
    """A Fig. 7-style grid of short jobs through ``run_jobs``."""

    name = "sweep-jobs2"
    #: The jobs run in forked workers, reaped before ``peak_rss_mb`` is
    #: read: it is the largest worker's peak.
    rusage = resource.RUSAGE_CHILDREN

    def specs(self, seed: int, scale: float = 1.0) -> List[JobSpec]:
        return [
            JobSpec(
                workload=SWEEP_FACTORY,
                workload_args={"name": app, "seed": seed,
                               "scale": SWEEP_SCALE * scale},
                config=SystemConfig(n_processors=cpus, seed=seed),
                label=f"{app}@{cpus}",
            )
            for app in SWEEP_APPS
            for cpus in SWEEP_CPUS
        ]

    def setup_probe(self, seed: int, start: float) -> float:
        register_workload(SWEEP_FACTORY, make_app)
        spec = self.specs(seed)[0]
        workload = build_workload(spec.workload, spec.config, spec.workload_args)
        return _time_to_first_event(ScalableTCCSystem(spec.config), workload, start)

    def run_once(self, seed: int, trace: bool = False, scale: float = 1.0) -> Sample:
        """Untraced: one ``run_jobs(jobs=2, cache=None)`` call, as users
        make it.  Traced: the same jobs one after another in this process,
        each machine traced, since the pool's workers cannot be."""
        register_workload(SWEEP_FACTORY, make_app)
        specs = self.specs(seed, scale)
        start = time.perf_counter()
        if trace:
            done, raw = self._traced_jobs(specs)
            stats = None
        else:
            outcomes, stats = run_jobs(specs, jobs=SWEEP_WORKERS, cache=None)
            done = [(o.spec, o.summary() if o.ok else o.error, o.wall_s)
                    for o in outcomes]
            raw = None
        wall = time.perf_counter() - start

        failures: List[str] = []
        commits = 0
        jobs = []
        for spec, summary, _ in done:
            if not isinstance(summary, ResultSummary):
                failures.append(f"{spec.describe()}: {summary}")
                continue
            args = spec.workload_args
            expected = seeded_profile(args["name"], seed, args["scale"]).total_transactions
            if summary.committed_transactions != expected:
                failures.append(
                    f"{spec.describe()}: committed "
                    f"{summary.committed_transactions} of {expected} transactions")
                continue
            commits += summary.committed_transactions
            jobs.append([summary.cycles, summary.committed_transactions,
                         summary.total_violations, summary.traffic_bytes_by_class])
        job_s = sum(job_wall for _, _, job_wall in done)
        return Sample(
            wall, job_s, len(specs), commits, failures,
            _canonical({"jobs_sha256": hashlib.sha256(
                _canonical(jobs).encode()).hexdigest()[:16],
                "commits": commits}),
            raw=raw,
            runner=None if stats is None else {
                "runner.overhead_s": wall - job_s / stats.jobs,
                "runner.job_s": job_s,
                "runner.jobs_run": stats.executed,
                "runner.cache_hits": stats.from_cache,
            },
        )

    @staticmethod
    def _traced_jobs(specs: List[JobSpec]):
        """``(spec, summary or error text, seconds)`` per job, and the
        jobs' per-layer numbers summed."""
        done = []
        raw: Dict[str, float] = {}
        for spec in specs:
            # Timed as a worker times a job: build, run, summarise.
            start = time.perf_counter()
            try:
                workload = build_workload(spec.workload, spec.config,
                                          spec.workload_args)
                result, _, job_raw = _run_machine(
                    ScalableTCCSystem(spec.config), workload, True,
                    max_cycles=spec.max_cycles, verify=spec.verify)
                summary = ResultSummary.from_result(result)
            except Exception as exc:  # a failed job is counted, not fatal
                done.append((spec, _describe(exc), time.perf_counter() - start))
                continue
            done.append((spec, summary, time.perf_counter() - start))
            add_raw(raw, job_raw)
        return done, raw


#: Why each was chosen: ``BENCHMARK.json`` and ``perfbench/README.md``.
WORKLOADS = {
    workload.name: workload
    for workload in (
        MachineWorkload("volrend-32", "volrend"),
        MachineWorkload("swim-32", "swim"),
        MachineWorkload("volrend-32-faults", "volrend", faults=True),
        SweepWorkload(),
    )
}
