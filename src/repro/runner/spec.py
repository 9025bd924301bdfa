"""Declarative simulation job specs and the named-workload registry.

A :class:`JobSpec` describes one simulation as pure data — the full
effective :class:`~repro.core.config.SystemConfig`, a workload *factory
name* plus keyword arguments, a seed, and run flags — so it can be
pickled to a worker process and hashed into a stable cache key.  The
indirection through :data:`WORKLOAD_FACTORIES` is what keeps specs
declarative: a lambda closed over a workload object is neither
picklable nor hashable, a ``("app", {"name": "barnes"})`` pair is both.

Two job kinds exist:

``sim``
    Build config + workload, run one system, summarize
    (:class:`~repro.runner.summary.ResultSummary`).  Cacheable.
``conform``
    One seeded campaign case (``run_conform_case(make_case(seed,
    **args))``); the seed plus the ``faults`` flag and the ``source``
    name in ``workload_args`` determine program, machine, and fault
    plan.  Cacheable (payloads carry no wall-clock fields).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.config import SystemConfig
from repro.workloads.apps import app_workload
from repro.workloads.base import Workload
from repro.workloads.micro import CounterWorkload
from repro.workloads.tm_patterns import (
    ListSetWorkload,
    MatrixTileWorkload,
    QueueWorkload,
)

JOB_KINDS = ("sim", "conform")

#: name -> factory(config, **args) -> Workload.  Factories take the
#: effective config first so they can match line/word geometry.
WORKLOAD_FACTORIES: Dict[str, Callable[..., Workload]] = {}


def register_workload(name: str, factory: Callable[..., Workload]) -> None:
    """Register (or replace) a named workload factory."""
    WORKLOAD_FACTORIES[name] = factory


def build_workload(name: str, config: SystemConfig,
                   args: Optional[Dict[str, Any]] = None) -> Workload:
    if name not in WORKLOAD_FACTORIES:
        raise ValueError(
            f"unknown workload factory {name!r}; registered: "
            f"{sorted(WORKLOAD_FACTORIES)}"
        )
    return WORKLOAD_FACTORIES[name](config, **(args or {}))


def make_app_workload(config: SystemConfig, name: str,
                      scale: float = 1.0) -> Workload:
    return app_workload(
        name, scale=scale,
        line_size=config.line_size, word_size=config.word_size,
    )


def make_counter_workload(config: SystemConfig, **kw: Any) -> Workload:
    return CounterWorkload(**kw)


def make_list_set_workload(config: SystemConfig, **kw: Any) -> Workload:
    return ListSetWorkload(**kw)


def make_queue_workload(config: SystemConfig, **kw: Any) -> Workload:
    return QueueWorkload(**kw)


def make_matrix_tile_workload(config: SystemConfig, **kw: Any) -> Workload:
    return MatrixTileWorkload(**kw)


def make_conform_workload(config: SystemConfig, seed: int = 0) -> Workload:
    """The conformance generator's program for ``seed``, as a plain
    workload (lazy import: repro.conform imports repro.core.system)."""
    from repro.conform.generator import generate_program

    return generate_program(seed).to_workload()


register_workload("app", make_app_workload)
register_workload("counter", make_counter_workload)
register_workload("list-set", make_list_set_workload)
register_workload("queue", make_queue_workload)
register_workload("matrix-tile", make_matrix_tile_workload)
register_workload("conform", make_conform_workload)


@dataclass(frozen=True)
class JobSpec:
    """One simulation job as pure, picklable data."""

    kind: str = "sim"
    #: ``sim`` only: a WORKLOAD_FACTORIES name.
    workload: Optional[str] = None
    workload_args: Optional[Dict[str, Any]] = None
    #: The full effective config (already has overrides applied).
    config: Optional[SystemConfig] = None
    #: ``conform`` only: the case seed (everything derives from it).
    seed: Optional[int] = None
    max_cycles: Optional[int] = None
    verify: bool = True
    #: Any job opts out of the result cache with this.
    cacheable: bool = True
    #: Free-form label for progress lines (not part of the cache key).
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"job kind must be one of {JOB_KINDS}, got {self.kind!r}")
        if self.kind == "conform" and self.seed is None:
            raise ValueError(f"{self.kind} jobs need a seed")
        if self.kind == "sim" and not self.workload:
            raise ValueError(f"{self.kind} jobs need a workload name")

    def canonical(self) -> Dict[str, Any]:
        """The identity of this job: everything that changes the outcome
        (and nothing that doesn't — labels and cache policy stay out)."""
        return {
            "kind": self.kind,
            "workload": self.workload,
            "workload_args": self.workload_args or {},
            "config": dataclasses.asdict(self.config) if self.config else None,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "verify": self.verify,
        }

    def key(self) -> str:
        """Content address: SHA-256 of the canonical JSON spec."""
        canonical = json.dumps(self.canonical(), sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.kind == "conform":
            return f"{self.kind} seed={self.seed}"
        n = self.config.n_processors if self.config else "?"
        return f"{self.kind} {self.workload}@{n}"
