"""Differential conformance testing: full simulator vs. reference oracle.

The pieces (see docs/TESTING.md for the workflow):

* :mod:`repro.conform.program` — transactional programs as pure data;
* :mod:`repro.conform.generator` — seeded random programs with conflict
  knobs, and :func:`make_case` deriving a whole case from one seed;
* :mod:`repro.conform.differ` — runs a case through the full machine and
  judges it against :mod:`repro.oracle` with the same judge as every
  verified run (:func:`repro.verify.serializability.judge`);
* :mod:`repro.conform.shrink` — greedy counterexample minimization;
* :mod:`repro.conform.counterexample` — replayable failure files;
* :mod:`repro.conform.harness` — parallel, cached campaigns
  (``python -m repro conform``).

This package is intentionally *not* imported from ``repro``'s top level:
it imports ``repro.core.system`` and must stay out of import cycles,
exactly like :mod:`repro.faults.chaos`.
"""

from repro.conform.counterexample import (
    iter_counterexamples,
    load_counterexample,
    replay_counterexample,
    save_counterexample,
)
from repro.conform.differ import ConformCaseResult, run_conform_case
from repro.conform.generator import ConformCase, GeneratorKnobs, generate_program, make_case
from repro.conform.harness import format_report, run_conform
from repro.conform.program import ConformProgram, ConformWorkload
from repro.conform.shrink import ShrinkResult, shrink_case

__all__ = [
    "ConformCase",
    "ConformCaseResult",
    "ConformProgram",
    "ConformWorkload",
    "GeneratorKnobs",
    "ShrinkResult",
    "format_report",
    "generate_program",
    "iter_counterexamples",
    "load_counterexample",
    "make_case",
    "replay_counterexample",
    "run_conform",
    "run_conform_case",
    "save_counterexample",
    "shrink_case",
]
