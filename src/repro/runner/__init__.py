"""Parallel simulation job runner with a content-addressed result cache.

The experiment harness's answer to the paper's own thesis: independent
work must not serialize on a global token.  Every multi-run driver
(sweeps, scaling studies, conform campaigns, figure benchmarks) describes
its runs as declarative :class:`JobSpec`\\ s and hands them to
:func:`run_jobs`, which fans them out over worker processes and
memoizes their summaries on disk keyed by ``SHA-256(spec) +
code-fingerprint``.  Serial and parallel execution are bit-identical;
warm re-runs of unchanged experiments are near-instant.

See ``docs/SIMULATOR.md`` ("Parallel execution & result cache").
"""

from repro.runner.cache import ResultCache, code_fingerprint
from repro.runner.pool import (
    JobOutcome,
    RunnerStats,
    as_cache,
    execute_job,
    resolve_jobs,
    run_jobs,
)
from repro.runner.spec import (
    JobSpec,
    WORKLOAD_FACTORIES,
    build_workload,
    register_workload,
)
from repro.runner.summary import ResultSummary

__all__ = [
    "JobOutcome",
    "JobSpec",
    "ResultCache",
    "ResultSummary",
    "RunnerStats",
    "WORKLOAD_FACTORIES",
    "as_cache",
    "build_workload",
    "code_fingerprint",
    "execute_job",
    "register_workload",
    "resolve_jobs",
    "run_jobs",
]
