"""Import-graph classifier: sim-path vs. driver-path modules.

**Sim-path** code executes inside a simulation: any nondeterminism there
(global RNG, wall clock, hash-order iteration feeding the event queue)
breaks bit-identical replay.  **Driver-path** code orchestrates runs —
the CLI, analysis, the process pool, the conform campaign driver — and is
free to read clocks, environment variables, and entropy.

The split is computed, not maintained by hand: sim-path is the
transitive import closure of the *simulation roots* —
``<pkg>.core.system`` (building a system pulls in the engine, network,
memory, processors, directories, verification, and fault machinery) and
everything under ``<pkg>.workloads`` (schedules feed the simulated
event stream even though the system never imports the concrete workload
modules).  A module that becomes reachable from the system in a future
refactor is automatically held to sim-path rules.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.lint.loader import Module

#: Roots of the sim-path closure, relative to the package name.
SIM_ROOT_SUFFIXES = ("core.system",)
#: Whole subpackages that are sim-path by fiat.
SIM_ROOT_PACKAGES = ("workloads",)

SIM = "sim"
DRIVER = "driver"


def _import_edges(module: Module, known: Set[str]) -> Set[str]:
    """Modules of ``known`` that ``module`` imports (any scope depth)."""
    edges: Set[str] = set()

    def resolve(target: str) -> None:
        # Prefer the deepest known prefix: "pkg.a.b" else "pkg.a" ...
        parts = target.split(".")
        for depth in range(len(parts), 0, -1):
            candidate = ".".join(parts[:depth])
            if candidate in known:
                edges.add(candidate)
                return

    package_parts = module.name.split(".")
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                resolve(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against this module's package.
                base = package_parts[: len(package_parts) - node.level]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            resolve(prefix)
            for alias in node.names:
                resolve(f"{prefix}.{alias.name}")
    edges.discard(module.name)
    return edges


def sim_roots(modules: Dict[str, Module]) -> List[str]:
    """The configured roots that actually exist in this tree."""
    packages = {name.split(".", 1)[0] for name in modules}
    roots: List[str] = []
    for package in sorted(packages):
        for suffix in SIM_ROOT_SUFFIXES:
            name = f"{package}.{suffix}"
            if name in modules:
                roots.append(name)
        for sub in SIM_ROOT_PACKAGES:
            prefix = f"{package}.{sub}"
            roots.extend(
                name for name in modules
                if name == prefix or name.startswith(prefix + ".")
            )
    return sorted(set(roots))


def classify_modules(modules: Dict[str, Module]) -> Dict[str, str]:
    """Label every module ``"sim"`` or ``"driver"`` (also sets
    :attr:`Module.path_kind` in place) via BFS over import edges."""
    known = set(modules)
    labels = {name: DRIVER for name in modules}
    queue: List[str] = sim_roots(modules)
    for name in queue:
        labels[name] = SIM
    while queue:
        current = queue.pop()
        for edge in _import_edges(modules[current], known):
            if labels[edge] != SIM:
                labels[edge] = SIM
                queue.append(edge)
    for name, label in labels.items():
        modules[name].path_kind = label
    return labels


def sim_modules(modules: Dict[str, Module]) -> List[Module]:
    return [m for m in modules.values() if m.path_kind == SIM]
