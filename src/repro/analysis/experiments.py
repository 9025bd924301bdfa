"""Experiment drivers shared by the benchmark harness and examples.

Each driver describes every run as a :class:`~repro.runner.JobSpec` (a
system runs exactly one workload, so every configuration is a fresh
job) and returns results keyed the way the corresponding paper artefact
needs them.

``run_apps``, ``run_scaling`` and ``run_latency_sweep`` accept ``jobs``
and ``cache`` and always route through the :mod:`repro.runner` process
pool: with ``jobs=1`` (the default) points execute in-process
sequentially, with ``jobs > 1`` they run concurrently across worker
processes, and ``cache`` memoizes their summaries in the
content-addressed result cache.  They return
:class:`~repro.runner.ResultSummary` objects — every number a figure or
table reads (``cycles``, ``breakdown_fractions()``,
``bytes_per_instruction()``, ``commit_phases``, the Table 3 row, …) —
bit-identical at any jobs/cache setting.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.config import SystemConfig
from repro.runner import JobSpec, ResultSummary, run_jobs
from repro.runner.pool import CacheLike

#: Safety bound: no single experiment may exceed this many cycles.
MAX_CYCLES = 5_000_000_000


def _app_spec(name: str, config: SystemConfig, scale: float,
              verify: bool) -> JobSpec:
    return JobSpec(
        kind="sim",
        workload="app",
        workload_args={"name": name, "scale": scale},
        config=config,
        max_cycles=MAX_CYCLES,
        verify=verify,
        label=f"{name}@{config.n_processors}",
    )


def _run_app_specs(specs: List[JobSpec], jobs: Optional[int],
                   cache: CacheLike) -> List[ResultSummary]:
    outcomes, _ = run_jobs(specs, jobs=jobs, cache=cache)
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(
                f"experiment job {outcome.spec.describe()} failed: "
                f"{outcome.error}"
            )
    return [outcome.summary() for outcome in outcomes]


def run_apps(
    names: Iterable[str],
    config: SystemConfig,
    scale: float = 1.0,
    verify: bool = True,
    jobs: Optional[int] = 1,
    cache: CacheLike = None,
) -> Dict[str, ResultSummary]:
    """Several applications on one configuration (Figures 6 and 9)."""
    names = list(names)
    specs = [_app_spec(name, config, scale, verify) for name in names]
    return dict(zip(names, _run_app_specs(specs, jobs, cache)))


def run_scaling(
    name: str,
    processor_counts: Iterable[int],
    base_config: Optional[SystemConfig] = None,
    scale: float = 1.0,
    verify: bool = True,
    jobs: Optional[int] = 1,
    cache: CacheLike = None,
) -> Dict[int, ResultSummary]:
    """Figure 7: the same total work across processor counts."""
    base = base_config or SystemConfig()
    counts = list(processor_counts)
    specs = [
        _app_spec(name, base.scaled_to(n), scale, verify) for n in counts
    ]
    return dict(zip(counts, _run_app_specs(specs, jobs, cache)))


def run_latency_sweep(
    name: str,
    link_latencies: Iterable[int],
    n_processors: int = 64,
    base_config: Optional[SystemConfig] = None,
    scale: float = 1.0,
    verify: bool = True,
    jobs: Optional[int] = 1,
    cache: CacheLike = None,
) -> Dict[int, ResultSummary]:
    """Figure 8: the impact of cycles-per-hop at a fixed processor count."""
    base = (base_config or SystemConfig()).scaled_to(n_processors)
    latencies = list(link_latencies)
    specs = [
        _app_spec(name, base.with_link_latency(latency), scale, verify)
        for latency in latencies
    ]
    return dict(zip(latencies, _run_app_specs(specs, jobs, cache)))
