"""Generic configuration sweeps over the application suite.

A sweep takes a base :class:`SystemConfig`, a grid of config overrides,
and a named workload; it runs every grid point (fresh system each —
systems are single-shot) and collects the results in a flat table that
renders as text or CSV.  The Figure 7/8 drivers are special cases of
this; the sweep exists for the *other* questions users ask ("what if
lines were 64 bytes?", "how does jitter interact with retention?").

Every grid point is a :class:`~repro.runner.JobSpec`, so ``run(jobs=N)``
fans them out over the :mod:`repro.runner` process pool (``jobs=1``
runs them in-process), and ``run(cache=True)`` memoizes each point in
the content-addressed result cache — a warm re-run of an unchanged
sweep costs milliseconds.  The workload is therefore *named*: a
``("app", {"name": "barnes", "scale": 0.5})`` pair of a
:data:`~repro.runner.WORKLOAD_FACTORIES` name and its keyword
arguments, which (unlike a closure) crosses a process boundary and
hashes into a stable cache key.
"""

from __future__ import annotations

import csv
import dataclasses
import difflib
import io
import itertools
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.core.config import SystemConfig
from repro.runner import JobSpec, ResultSummary, RunnerStats, run_jobs
from repro.runner.pool import CacheLike

#: A named workload: a factory name from repro.runner.WORKLOAD_FACTORIES
#: and its keyword arguments.
WorkloadSpec = Tuple[str, Dict[str, Any]]

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(SystemConfig))


def _validate_grid_keys(grid: Dict[str, Any]) -> None:
    """Reject unknown override keys up front with a one-line error,
    instead of the opaque TypeError dataclasses.replace raises mid-sweep."""
    for key in grid:
        if key not in _CONFIG_FIELDS:
            hint = difflib.get_close_matches(key, _CONFIG_FIELDS, n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ValueError(
                f"sweep override {key!r} is not a SystemConfig field{suggestion}"
            )


@dataclasses.dataclass
class SweepPoint:
    """One grid point's parameters and outcome."""

    overrides: Dict[str, Any]
    result: ResultSummary

    def row(self) -> Dict[str, Any]:
        fractions = self.result.breakdown_fractions()
        return {
            **self.overrides,
            "cycles": self.result.cycles,
            "commits": self.result.committed_transactions,
            "violations": self.result.total_violations,
            "useful_frac": round(fractions["useful"], 4),
            "commit_frac": round(fractions["commit"], 4),
            "violation_frac": round(fractions["violation"], 4),
            "bytes_per_instr": round(
                sum(self.result.bytes_per_instruction().values()), 4
            ),
        }


class Sweep:
    """Cartesian sweep of one named workload over config dimensions."""

    def __init__(
        self,
        base_config: SystemConfig,
        grid: Dict[str, Iterable[Any]],
        workload: WorkloadSpec,
        max_cycles: Optional[int] = 5_000_000_000,
        verify: bool = True,
    ) -> None:
        self.base_config = base_config
        self.grid = {key: list(values) for key, values in grid.items()}
        _validate_grid_keys(self.grid)
        self.workload = workload
        self.max_cycles = max_cycles
        self.verify = verify
        self.points: List[SweepPoint] = []
        self.last_run_stats: Optional[RunnerStats] = None

    def __len__(self) -> int:
        total = 1
        for values in self.grid.values():
            total *= len(values)
        return total

    def _combos(self) -> List[Dict[str, Any]]:
        keys = list(self.grid)
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grid[k] for k in keys))
        ]

    def run(
        self,
        jobs: Optional[int] = 1,
        cache: CacheLike = None,
        progress=None,
    ) -> List[SweepPoint]:
        """Execute every grid point; returns (and stores) the points.

        ``jobs`` > 1 (or None for all cores) fans grid points out over
        worker processes; ``cache`` memoizes point summaries on disk
        (True, a directory path, or a ResultCache).  Results are
        bit-identical across any jobs/cache setting.
        """
        combos = self._combos()
        name, args = self.workload
        specs = []
        for overrides in combos:
            config = dataclasses.replace(self.base_config, **overrides)
            specs.append(JobSpec(
                kind="sim",
                workload=name,
                workload_args=args,
                config=config,
                max_cycles=self.max_cycles,
                verify=self.verify,
                label=f"{name} {overrides}",
            ))
        outcomes, stats = run_jobs(specs, jobs=jobs, cache=cache,
                                   progress=progress)
        for outcome in outcomes:
            if not outcome.ok:
                raise RuntimeError(
                    f"sweep point {combos[outcome.index]} failed: "
                    f"{outcome.error}"
                )
        self.points = [
            SweepPoint(combos[o.index], o.summary()) for o in outcomes
        ]
        self.last_run_stats = stats
        return self.points

    def fingerprints(self) -> List[str]:
        """Per-point result fingerprints — the bit-exactness witness for
        serial-vs-parallel and cold-vs-cached equivalence."""
        if not self.points:
            raise RuntimeError("sweep has not been run")
        return [point.result.fingerprint() for point in self.points]

    # -- rendering ---------------------------------------------------------

    def _rows(self) -> List[Dict[str, Any]]:
        if not self.points:
            raise RuntimeError("sweep has not been run")
        return [point.row() for point in self.points]

    def as_table(self) -> str:
        rows = self._rows()
        headers = list(rows[0])
        return format_table(
            headers, [[str(row[h]) for h in headers] for row in rows]
        )

    def as_csv(self) -> str:
        rows = self._rows()
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue()

    def best(self, metric: str = "cycles") -> SweepPoint:
        """The point minimizing ``metric`` (a row key)."""
        if not self.points:
            raise RuntimeError("sweep has not been run")
        return min(self.points, key=lambda p: p.row()[metric])
