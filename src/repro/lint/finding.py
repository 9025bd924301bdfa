"""Findings: what a rule reports, and the result of a whole lint run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(slots=True, frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative (or loader-relative) file path
    line: int
    message: str
    module: str = ""  # dotted module name, when known

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "module": self.module,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass(slots=True)
class LintResult:
    """Everything one lint run produced.

    ``findings`` are the *active* findings — the ones not suppressed
    inline — and alone decide the exit status.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    modules_scanned: int = 0
    sim_path_modules: List[str] = field(default_factory=list)
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "modules_scanned": self.modules_scanned,
            "rules_run": list(self.rules_run),
            "sim_path_modules": list(self.sim_path_modules),
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
        }
