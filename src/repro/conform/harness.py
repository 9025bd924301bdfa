"""Conformance campaigns: N seeded differential cases, parallel + cached.

``run_conform`` fans seeded cases out over the :mod:`repro.runner`
process pool with the content-addressed result cache (a conform case is
a pure function of ``(seed, faults, source)`` and the code
fingerprint), shrinks every failure to a minimal reproducer in the
parent, writes the shrunk counterexamples as replayable JSON files, and
returns the ``CONFORM_report.json`` payload.

Per-case payloads contain no wall-clock or host-dependent fields, so the
report's ``fingerprint`` — a SHA-256 over the canonical per-case results
— is bit-identical at any ``--jobs`` setting and across cache hits; the
equivalence is pinned by ``tests/test_conform.py``.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List, Optional

from repro.conform.counterexample import save_counterexample
from repro.conform.differ import ConformCaseResult
from repro.conform.generator import SOURCES, make_case
from repro.conform.shrink import shrink_case

#: Cap on how many failures one campaign shrinks (each shrink re-runs the
#: case up to ``shrink_evals`` times; the first few reproducers are what
#: gets triaged anyway).
MAX_SHRINKS = 5


def results_fingerprint(results: List[ConformCaseResult]) -> str:
    """SHA-256 over the canonical per-case outcome list."""
    canonical = json.dumps([r.as_dict() for r in results], sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_conform(
    cases: int = 200,
    seed0: int = 0,
    faults: bool = False,
    source: str = "program",
    progress=None,
    jobs: Optional[int] = 1,
    cache=None,
    shrink: bool = True,
    shrink_evals: int = 300,
    save_dir: Optional[str] = None,
    full: bool = False,
) -> Dict[str, Any]:
    """Run a campaign of ``cases`` differential checks; return a report.

    ``source`` names where each case's program comes from (``program``
    or ``patterns``, see :mod:`repro.conform.generator`).  On failure:
    the case is rebuilt from its seed, greedily shrunk (``shrink=False``
    to skip), and — when ``save_dir`` is set — written there as a
    replayable counterexample file whose path lands in the report, ready
    to be checked into ``tests/fixtures/conform/``.
    """
    from repro.runner import JobSpec, run_jobs

    if source not in SOURCES:
        raise ValueError(f"unknown conform source {source!r}; "
                         f"expected one of {SOURCES}")
    started = time.perf_counter()
    # ``faults`` and ``source`` ride in workload_args so they reach the
    # worker-side make_case() *and* key the cache (a faulty campaign must
    # not be satisfied by cached fault-free outcomes).
    case_args: Dict[str, Any] = {}
    if faults:
        case_args["faults"] = True
    if source != "program":
        case_args["source"] = source
    specs = [JobSpec(kind="conform", seed=seed0 + i,
                     workload_args=case_args or None,
                     label=f"conform {seed0 + i}")
             for i in range(cases)]

    results: List[ConformCaseResult] = [None] * cases  # type: ignore[list-item]

    def on_outcome(outcome) -> None:
        if outcome.ok:
            data = dict(outcome.payload["case"])
        else:
            # Infrastructure failure (e.g. a quarantined worker crash):
            # a structured case failure, not an exception.
            data = ConformCaseResult(
                seed=specs[outcome.index].seed, faults=faults,
                n_processors=0, transactions=0,
                outcome="error", detail=outcome.error or "",
            ).as_dict()
        case_result = ConformCaseResult(**data)
        results[outcome.index] = case_result
        if progress is not None:
            progress(case_result)

    _, stats = run_jobs(specs, jobs=jobs, cache=cache, progress=on_outcome)

    failures = [r for r in results if not r.ok]
    outcome_counts: Dict[str, int] = {}
    fault_totals: Dict[str, int] = {}
    for r in results:
        outcome_counts[r.outcome] = outcome_counts.get(r.outcome, 0) + 1
        for key, value in r.fault_stats.items():
            fault_totals[key] = fault_totals.get(key, 0) + value

    shrunk: List[Dict[str, Any]] = []
    if shrink:
        for failure in failures[:MAX_SHRINKS]:
            if failure.outcome == "error" and failure.transactions == 0:
                continue  # infrastructure failure; nothing to shrink
            case = make_case(failure.seed, faults=faults, source=source)
            try:
                shrink_result = shrink_case(case, max_evals=shrink_evals)
            except ValueError:
                # Did not reproduce in-parent (e.g. a flaky host issue);
                # record the raw failure, nothing to minimize.
                shrunk.append({"seed": failure.seed,
                               "reproduced": False})
                continue
            entry: Dict[str, Any] = {
                "seed": failure.seed,
                "reproduced": True,
                "summary": shrink_result.describe(),
                "final_txs": shrink_result.final_txs,
                "final_ops": shrink_result.final_ops,
                "outcome": shrink_result.result.outcome,
                "mismatches": list(shrink_result.result.mismatches),
            }
            if save_dir is not None:
                mode = "faults" if faults else "clean"
                path = save_counterexample(
                    shrink_result.case, shrink_result.result,
                    f"{save_dir}/{source}_seed{failure.seed}_{mode}.json",
                )
                entry["file"] = str(path)
            shrunk.append(entry)

    report: Dict[str, Any] = {
        "cases": cases,
        "seed0": seed0,
        "faults": faults,
        "source": source,
        "passed": len(results) - len(failures),
        "failed": len(failures),
        "outcome_counts": outcome_counts,
        "failures": [r.as_dict() for r in failures],
        "shrunk": shrunk,
        "fault_totals": fault_totals,
        "fingerprint": results_fingerprint(results),
        "wall_seconds": round(time.perf_counter() - started, 3),
        "runner": stats.as_dict(),
    }
    if full:
        report["results"] = [r.as_dict() for r in results]
    return report


def format_report(report: Dict[str, Any]) -> str:
    """Render a campaign report for the terminal."""
    mode = "faults" if report["faults"] else "fault-free"
    lines = [
        f"conform {report['source']}: "
        f"{report['passed']}/{report['cases']} passed "
        f"({mode}, seeds {report['seed0']}.."
        f"{report['seed0'] + report['cases'] - 1}, "
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
    lines.append(f"  fingerprint: {report['fingerprint'][:16]}…")
    for failure in report["failures"]:
        lines.append(
            f"  FAIL seed={failure['seed']} "
            f"{failure['n_processors']}p/{failure['transactions']}tx: "
            f"{failure['outcome']} ({failure['detail']}) — replay: "
            f"run_conform_case(make_case({failure['seed']}, "
            f"faults={report['faults']}, source={report['source']!r}))"
        )
    for entry in report["shrunk"]:
        if entry.get("reproduced"):
            line = f"  shrunk seed={entry['seed']}: {entry['summary']}"
            if "file" in entry:
                line += f" -> {entry['file']}"
        else:
            line = (f"  shrunk seed={entry['seed']}: did not reproduce "
                    f"in-parent")
        lines.append(line)
    if not report["failures"]:
        lines.append(
            "  oracle agreement on commit order, read witnesses, "
            "and final memory for every case"
        )
    return "\n".join(lines)
