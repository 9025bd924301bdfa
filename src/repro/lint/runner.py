"""Run every registered rule over a module tree and fold in inline
suppressions."""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.lint.base import all_rules
from repro.lint.classify import classify_modules, sim_modules
from repro.lint.finding import Finding, LintResult
from repro.lint.loader import Module, load_tree

#: Rule id attached to files that do not parse.
PARSE_RULE = "lint-parse"


def default_root() -> str:
    """The installed ``repro`` package directory."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def lint_modules(modules: Dict[str, Module]) -> LintResult:
    """Lint an already-loaded module dict (fixtures use this directly)."""
    classify_modules(modules)
    rules = all_rules()
    raw: List[Finding] = []

    for module in modules.values():
        for error in module.errors:
            raw.append(Finding(rule=PARSE_RULE, path=module.path, line=1,
                               message=error, module=module.name))
        raw.extend(module.suppressions.malformed)

    for rule in rules:
        if rule.scope == "tree":
            raw.extend(rule.check_tree(modules))
            continue
        for module in modules.values():
            if rule.scope == "sim" and module.path_kind != "sim":
                continue
            raw.extend(rule.check(module))

    result = LintResult(
        modules_scanned=len(modules),
        sim_path_modules=sorted(m.name for m in sim_modules(modules)),
        rules_run=[rule.id for rule in rules],
    )
    by_name = {module.name: module for module in modules.values()}
    by_path = {module.path: module for module in modules.values()}
    for finding in sorted(raw, key=Finding.sort_key):
        module = by_name.get(finding.module) or by_path.get(finding.path)
        if (
            module is not None
            and finding.rule != PARSE_RULE
            and module.suppressions.matches(finding.rule, finding.line)
        ):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


def run_lint(root: Optional[str] = None) -> LintResult:
    """Load ``root`` (default: the installed package) and lint it."""
    return lint_modules(load_tree(root or default_root()))
