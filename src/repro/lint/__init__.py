"""repro lint: an AST-based determinism & protocol-contract analyzer.

The simulator's headline guarantees — bit-identical replay from a seed,
stable content-addressed cache keys, and the paper's commit-protocol
structure — are enforced dynamically by tests.  This package enforces
them *statically*, before a campaign seed ever has to find a violation:

* :mod:`repro.lint.classify` splits the package into **sim-path**
  modules (code that executes inside a simulation, where any
  nondeterminism breaks replay) and **driver-path** modules (CLI,
  analysis, the process pool — free to read clocks and environment);
* :mod:`repro.lint.rules.determinism` rejects global-RNG use,
  wall-clock reads, environment access, unordered-collection iteration
  that feeds event scheduling, ``id()``-based ordering, unslotted
  message/event dataclasses, and module-level RNG objects in sim-path
  code;
* :mod:`repro.lint.rules.spec` keeps :class:`~repro.runner.spec.JobSpec`
  declarative: workload factories must be named top-level callables and
  cache-key fields must be canonically serializable;
* :mod:`repro.lint.rules.protocol` extracts the handler and emission
  graph of the coherence :mod:`message set <repro.core.messages>` from
  the source and checks it against the declared
  :data:`~repro.lint.protocol_table.PROTOCOL_TABLE` — every message has
  exactly one handler, senders are the declared senders, and every
  commit-critical send site sits under a retry/backoff wrapper.

Findings are silenced only inline (``# repro: allow[rule-id] reason``
— the reason is mandatory).  ``python -m repro lint`` is the CLI;
``.github/workflows/ci.yml`` runs it as a gating job.
"""

from repro.lint.classify import classify_modules
from repro.lint.finding import Finding, LintResult
from repro.lint.loader import Module, load_source, load_tree
from repro.lint.runner import default_root, lint_modules, run_lint

__all__ = [
    "Finding",
    "LintResult",
    "Module",
    "classify_modules",
    "default_root",
    "lint_modules",
    "load_source",
    "load_tree",
    "run_lint",
]
