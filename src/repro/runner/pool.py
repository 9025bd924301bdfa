"""Process-pool execution of simulation job specs.

``run_jobs(specs)`` resolves each :class:`~repro.runner.spec.JobSpec`
to a :class:`JobOutcome` — from the result cache when the content
address hits, otherwise by executing it — and returns outcomes in spec
order plus a :class:`RunnerStats` accounting.  With ``jobs=1`` (the
library default) everything runs in-process with no pickling, so
breakpoints, profilers, and exception tracebacks behave exactly as in a
plain loop.  With ``jobs > 1`` a ``concurrent.futures`` process pool
executes jobs concurrently; because every job is a pure function of its
spec, the outcome list is bit-identical to the serial one regardless of
scheduling.

Failure containment, not propagation: a Python exception inside a job
is deterministic (retrying cannot help) and becomes an ``error``
outcome immediately.  A *worker crash* (segfault, OOM kill) breaks the
whole pool, so every job that got no result is re-run alone in a fresh
one-worker pool: a job that breaks its own pool is retried up to
``crash_retries`` times and then quarantined as an error outcome, and
the jobs it took down with it complete normally — a single bad job can
never kill a campaign.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import SystemConfig
from repro.core.system import ScalableTCCSystem
from repro.runner.cache import ResultCache
from repro.runner.spec import JobSpec, build_workload
from repro.runner.summary import ResultSummary

CacheLike = Union[None, bool, str, ResultCache]


# -- job execution (runs inside workers, and in-process at jobs=1) --------


def execute_job(spec: JobSpec) -> Dict[str, Any]:
    """Run one job to a JSON-able payload.  Pure: the payload depends
    only on the spec and the simulator version."""
    if spec.kind == "sim":
        return _execute_sim(spec)
    if spec.kind == "conform":
        # Imported lazily: repro.conform imports repro.core.system and
        # must stay out of import cycles.
        from repro.conform.differ import run_conform_case
        from repro.conform.generator import make_case as make_conform_case

        case = make_conform_case(spec.seed, **(spec.workload_args or {}))
        return {"case": run_conform_case(case).as_dict()}
    raise ValueError(f"unknown job kind {spec.kind!r}")


def _execute_sim(spec: JobSpec) -> Dict[str, Any]:
    config = spec.config or SystemConfig()
    workload = build_workload(spec.workload, config, spec.workload_args)
    system = ScalableTCCSystem(config)
    result = system.run(workload, max_cycles=spec.max_cycles,
                        verify=spec.verify)
    return {"summary": ResultSummary.from_result(result).to_dict()}


def _timed_job(
    spec: JobSpec,
) -> Tuple[Optional[Dict[str, Any]], Optional[str], float]:
    """``(payload, error, seconds)`` for one job, in this process.  A
    Python exception is a deterministic failure, not a crash: it comes
    back as one-line error text instead of propagating."""
    start = time.perf_counter()
    try:
        payload = execute_job(spec)
    except Exception as exc:
        text = str(exc).splitlines()[0] if str(exc) else ""
        return (None, f"{type(exc).__name__}: {text}",
                time.perf_counter() - start)
    return payload, None, time.perf_counter() - start


# -- outcomes and accounting ----------------------------------------------


@dataclass
class JobOutcome:
    """Resolution of one spec: a payload, a cache hit, or an error."""

    index: int
    spec: JobSpec
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cached: bool = False
    attempts: int = 1
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def summary(self) -> ResultSummary:
        """The ResultSummary of a ``sim`` payload."""
        if not self.ok:
            raise RuntimeError(
                f"job {self.spec.describe()} failed: {self.error}"
            )
        return ResultSummary.from_dict(self.payload["summary"])


@dataclass
class RunnerStats:
    """One run_jobs call's accounting, for reports and artifacts."""

    jobs: int
    total: int
    executed: int = 0
    from_cache: int = 0
    errors: int = 0
    crashes: int = 0
    retried: int = 0
    quarantined: int = 0
    wall_s: float = 0.0
    cache: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "total": self.total,
            "executed": self.executed,
            "from_cache": self.from_cache,
            "errors": self.errors,
            "crashes": self.crashes,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "wall_s": round(self.wall_s, 4),
            "cache": self.cache,
        }

    def describe(self) -> str:
        parts = [
            f"runner: {self.total} job(s) on {self.jobs} worker(s) "
            f"in {self.wall_s:.2f}s — {self.executed} executed, "
            f"{self.from_cache} from cache"
        ]
        if self.errors:
            parts.append(f"{self.errors} failed")
        if self.crashes:
            parts.append(
                f"{self.crashes} worker crash(es): "
                f"{self.retried} retried, {self.quarantined} quarantined"
            )
        if self.cache:
            parts.append(
                f"cache {self.cache['hits']} hit / {self.cache['misses']} "
                f"miss / {self.cache['invalidations']} stale"
            )
        return "; ".join(parts)


def resolve_jobs(jobs: Optional[int]) -> int:
    """None/0 means "all cores"; anything else must be a positive int."""
    if jobs in (None, 0):
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or None for all cores), got {jobs}")
    return jobs


def as_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Normalize the ``cache`` argument consumers accept: None/False (no
    caching), True (default location), a root path, or a ResultCache."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(root=str(cache))


# -- the pool --------------------------------------------------------------


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: Optional[int] = 1,
    cache: CacheLike = None,
    progress: Optional[Callable[[JobOutcome], None]] = None,
    crash_retries: int = 1,
) -> Tuple[List[JobOutcome], RunnerStats]:
    """Resolve every spec; outcomes come back in spec order.

    ``progress`` is called once per outcome as it resolves (cache hits
    first, then executed jobs in completion order).
    """
    specs = list(specs)
    n_workers = resolve_jobs(jobs)
    cache_obj = as_cache(cache)
    stats = RunnerStats(jobs=n_workers, total=len(specs))
    counters_before = (
        (cache_obj.hits, cache_obj.misses, cache_obj.invalidations,
         cache_obj.writes) if cache_obj is not None else None
    )
    started = time.perf_counter()
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)

    def finish(outcome: JobOutcome) -> None:
        outcomes[outcome.index] = outcome
        spec = outcome.spec
        if (outcome.ok and not outcome.cached and cache_obj is not None
                and spec.cacheable):
            cache_obj.put(spec.key(), outcome.payload)
        if progress is not None:
            progress(outcome)

    to_run: List[int] = []
    for i, spec in enumerate(specs):
        payload = None
        if cache_obj is not None and spec.cacheable:
            payload = cache_obj.get(spec.key())
        if payload is not None:
            stats.from_cache += 1
            finish(JobOutcome(i, spec, payload=payload, cached=True,
                              attempts=0))
        else:
            to_run.append(i)

    if to_run:
        if n_workers == 1 or len(to_run) == 1:
            for i in to_run:
                payload, error, wall = _timed_job(specs[i])
                finish(JobOutcome(i, specs[i], payload=payload, error=error,
                                  wall_s=wall))
        else:
            _run_parallel(specs, to_run, n_workers, finish, stats,
                          crash_retries)

    stats.executed = len(to_run)
    stats.errors = sum(1 for o in outcomes if o is not None and not o.ok)
    stats.wall_s = time.perf_counter() - started
    if cache_obj is not None:
        # Per-run deltas, not instance-lifetime counters: a warm re-run
        # must report its own hits, not the cold run's misses.
        stats.cache = cache_obj.stats()
        for name, before in zip(
                ("hits", "misses", "invalidations", "writes"),
                counters_before):
            stats.cache[name] = stats.cache[name] - before
    return [o for o in outcomes if o is not None], stats


def _run_parallel(
    specs: List[JobSpec],
    to_run: List[int],
    n_workers: int,
    finish: Callable[[JobOutcome], None],
    stats: RunnerStats,
    crash_retries: int,
) -> None:
    # Imported here so that a serial run never pays for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    # Explicit, never the interpreter's default: factories registered at
    # runtime reach the workers only through fork.
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    lost: List[int] = []
    pool = ProcessPoolExecutor(min(n_workers, len(to_run)), mp_context=ctx)
    try:
        futures = {pool.submit(_timed_job, specs[i]): i for i in to_run}
        for future in as_completed(futures):
            index = futures[future]
            try:
                payload, error, wall = future.result()
            except BrokenProcessPool:
                lost.append(index)
                continue
            finish(JobOutcome(index, specs[index], payload=payload,
                              error=error, wall_s=wall))
    finally:
        pool.shutdown(cancel_futures=True)

    # A crash breaks the shared pool and takes every unfinished job down
    # with it.  Run each alone to find the culprit: only a job that
    # breaks its own pool counts as a crash.
    def run_alone(spec: JobSpec):
        with ProcessPoolExecutor(1, mp_context=ctx) as solo:
            try:
                return solo.submit(_timed_job, spec).result()
            except BrokenProcessPool:
                return None

    for index in sorted(lost):
        attempts = 1
        result = run_alone(specs[index])
        while result is None and attempts <= crash_retries:
            stats.crashes += 1
            stats.retried += 1
            attempts += 1
            result = run_alone(specs[index])
        if result is None:
            stats.crashes += 1
            stats.quarantined += 1
            finish(JobOutcome(
                index, specs[index],
                error=f"worker process exited abnormally; "
                      f"quarantined after {attempts} attempts",
                attempts=attempts,
            ))
        else:
            payload, error, wall = result
            finish(JobOutcome(index, specs[index], payload=payload,
                              error=error, attempts=attempts, wall_s=wall))
