"""The experiment driver shared by the benchmark harness, CLI and examples.

Every paper artefact is a grid over the application profiles: Fig. 6,
Fig. 9 and Table 3 vary the app, Fig. 7 the processor count, Fig. 8 the
cycles per hop, and ``repro sweep`` any :class:`SystemConfig` fields.
:func:`run_points` takes such a grid as a mapping from a caller-chosen
key to an ``(app, config)`` point, describes each point as a
:class:`~repro.runner.JobSpec` (a system runs exactly one workload, so
every point is a fresh job) and resolves them all in one
:func:`~repro.runner.run_jobs` call.

With ``jobs=1`` (the default) points execute in-process sequentially,
with ``jobs > 1`` they run concurrently across worker processes, and
``cache`` memoizes their summaries in the content-addressed result
cache.  The :class:`~repro.runner.ResultSummary` objects that come back
— every number a figure or table reads (``cycles``,
``breakdown_fractions()``, ``bytes_per_instruction()``,
``commit_phases``, the Table 3 row, …) — are bit-identical at any
jobs/cache setting.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Tuple, TypeVar

from repro.core.config import SystemConfig
from repro.runner import JobSpec, ResultSummary, RunnerStats, run_jobs
from repro.runner.pool import CacheLike

#: Safety bound: no single experiment may exceed this many cycles.
MAX_CYCLES = 5_000_000_000

K = TypeVar("K", bound=Hashable)


def run_points(
    points: Mapping[K, Tuple[str, SystemConfig]],
    scale: float = 1.0,
    verify: bool = True,
    jobs: Optional[int] = 1,
    cache: CacheLike = None,
) -> Tuple[Dict[K, ResultSummary], RunnerStats]:
    """Run every ``key -> (app, config)`` point of a grid.

    Returns the summaries keyed like ``points`` (in its order) and the
    runner's accounting.  A failed point raises ``RuntimeError`` naming
    its key.
    """
    specs = [
        JobSpec(
            kind="sim",
            workload="app",
            workload_args={"name": name, "scale": scale},
            config=config,
            max_cycles=MAX_CYCLES,
            verify=verify,
            label=f"point {key!r} ({name}@{config.n_processors})",
        )
        for key, (name, config) in points.items()
    ]
    outcomes, stats = run_jobs(specs, jobs=jobs, cache=cache)
    summaries = {
        key: outcome.summary() for key, outcome in zip(points, outcomes)
    }
    return summaries, stats
