"""Differential comparison: full simulator vs. reference oracle.

``run_conform_case`` runs one :class:`~repro.conform.generator.ConformCase`
through the full simulated machine (``verify=False``) and judges the run
against the case's own program with
:func:`repro.verify.serializability.judge` — the same judge every
``run(verify=True)`` uses, here fed the generated program rather than
the schedules the machine recorded.  The judge diffs commit order, read
witnesses and the per-word final memory against the oracle.

Every failure mode is a structured :class:`ConformCaseResult`, never an
exception, so campaigns keep running and outcomes are cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.conform.generator import ConformCase
from repro.core.system import ScalableTCCSystem, SimulationTimeout
from repro.faults.watchdog import WatchdogStall
from repro.verify.serializability import judge

#: Hard backstop so a watchdog bug cannot hang the harness itself.
MAX_CYCLES = 50_000_000


@dataclass
class ConformCaseResult:
    """Outcome of one differential run (pure data, cache-stable)."""

    seed: int
    faults: bool
    n_processors: int
    transactions: int
    outcome: str  # "ok" | "mismatch" | "stall" | "timeout" | "error"
    detail: str = ""
    mismatches: List[Dict[str, Any]] = field(default_factory=list)
    committed: int = 0
    violations: int = 0
    cycles: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": self.faults,
            "n_processors": self.n_processors,
            "transactions": self.transactions,
            "outcome": self.outcome,
            "detail": self.detail,
            "mismatches": [dict(m) for m in self.mismatches],
            "committed": self.committed,
            "violations": self.violations,
            "cycles": self.cycles,
        }


def run_conform_case(case: ConformCase) -> ConformCaseResult:
    """Run one case; every failure mode becomes a structured outcome."""
    result = ConformCaseResult(
        seed=case.seed, faults=case.faults,
        n_processors=case.program.n_processors,
        transactions=case.program.tx_count,
        outcome="ok",
    )
    system = ScalableTCCSystem(case.build_config())
    try:
        run = system.run(case.build_workload(), max_cycles=MAX_CYCLES,
                         verify=False)
    except WatchdogStall as exc:
        result.outcome = "stall"
        result.detail = str(exc).splitlines()[0]
        result.cycles = exc.report.get("cycle", system.engine.now)
    except SimulationTimeout as exc:
        result.outcome = "timeout"
        result.detail = str(exc)
        result.cycles = system.engine.now
    except Exception as exc:  # invariant / protocol / workload failure
        result.outcome = "error"
        result.detail = f"{type(exc).__name__}: {exc}".splitlines()[0]
        result.cycles = system.engine.now
    else:
        result.cycles = run.cycles
        result.committed = run.committed_transactions
        result.violations = run.total_violations
        program = case.program
        mismatches = judge(program.schedules, run.commit_log,
                           run.memory_image, program.line_size,
                           program.word_size)
        if mismatches:
            result.outcome = "mismatch"
            result.detail = mismatches[0].detail
            result.mismatches = [m.as_dict() for m in mismatches]
    return result
