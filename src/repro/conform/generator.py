"""Seeded campaign cases: random transactional programs and TM patterns.

Case ``seed`` deterministically derives everything — machine size,
the program itself, and (with ``faults=True``) a fault plan — so a
failing case replays from its seed alone, and a :class:`ConformCase` is
pure picklable data that a ``JobSpec(kind="conform", seed=...)`` can
name.  Two *sources* supply the program:

* ``program`` — :func:`generate_program`'s random programs with
  contention knobs, on 2-8 processors;
* ``patterns`` — :func:`pattern_program`: one of three classic TM
  data-structure workloads (a hot counter, a sorted-list set, a shared
  queue) on 4-8 processors, materialised into a program.  Pattern cases
  also check the machine-wide invariants between engine slices
  (``paranoid=True``).

The contention knobs of the ``program`` source are the interesting
part.  Each case draws:

* a *hot set* of shared lines every processor hammers (``hot_lines``
  lines, restricted to ``hot_words`` words so same-word RMW conflicts —
  the strongest serializability probe — actually happen);
* a *private region* per processor (conflict-free background traffic,
  exercises first-touch placement and eviction without aborts);
* ``p_hot``, the probability any memory op targets the hot set;
* an op-mix profile (read-heavy / write-heavy / rmw-heavy / mixed) and a
  barrier-epoch structure (1-3 epochs, all processors synchronized).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.conform.program import ConformProgram
from repro.core.config import SystemConfig
from repro.faults.plan import FaultPlan, random_fault_plan
from repro.workloads.base import BARRIER, Transaction, Workload
from repro.workloads.micro import CounterWorkload
from repro.workloads.tm_patterns import ListSetWorkload, QueueWorkload

LINE_SIZE = 32
WORD_SIZE = 4

#: Where :func:`make_case` takes a case's program from.
SOURCES = ("program", "patterns")
#: The ``patterns`` source's workloads.
PATTERN_WORKLOADS = ("hot-counter", "list-set", "queue")

#: Op-mix profiles: weights for (ld, st, add).
_MIX_PROFILES = {
    "read-heavy": (6, 1, 2),
    "write-heavy": (1, 5, 2),
    "rmw-heavy": (1, 1, 6),
    "mixed": (3, 3, 3),
}

#: Private lines start here; hot lines live at 0..hot_lines-1 so the two
#: regions can never alias.
_PRIVATE_BASE_LINE = 512
_PRIVATE_LINES_PER_PROC = 8


@dataclass(frozen=True)
class GeneratorKnobs:
    """The contention profile one seed draws (recorded for triage)."""

    n_processors: int
    epochs: int
    tx_per_proc_per_epoch: int
    max_ops_per_tx: int
    hot_lines: int
    hot_words: int
    p_hot: float
    mix: str
    network_jitter: int

    def as_dict(self) -> Dict[str, Any]:
        import dataclasses

        return dataclasses.asdict(self)


def _addr(line: int, word: int) -> int:
    return line * LINE_SIZE + word * WORD_SIZE


def draw_knobs(rng: random.Random) -> GeneratorKnobs:
    return GeneratorKnobs(
        n_processors=rng.choice((2, 3, 4, 4, 6, 8)),
        epochs=rng.randint(1, 3),
        tx_per_proc_per_epoch=rng.randint(1, 4),
        max_ops_per_tx=rng.randint(2, 6),
        hot_lines=rng.choice((1, 1, 2, 4)),
        hot_words=rng.choice((1, 2, 8)),
        p_hot=round(rng.uniform(0.2, 0.95), 3),
        mix=rng.choice(tuple(_MIX_PROFILES)),
        network_jitter=rng.randint(0, 6),
    )


def _random_op(rng: random.Random, proc: int, knobs: GeneratorKnobs):
    """One memory or compute op for processor ``proc``."""
    if rng.random() < 0.25:
        return ("c", rng.randint(1, 6))
    if rng.random() < knobs.p_hot:
        line = rng.randrange(knobs.hot_lines)
        word = rng.randrange(knobs.hot_words)
    else:
        line = _PRIVATE_BASE_LINE + proc * _PRIVATE_LINES_PER_PROC \
            + rng.randrange(_PRIVATE_LINES_PER_PROC)
        word = rng.randrange(LINE_SIZE // WORD_SIZE)
    addr = _addr(line, word)
    kind = rng.choices(("ld", "st", "add"),
                       weights=_MIX_PROFILES[knobs.mix])[0]
    if kind == "ld":
        return ("ld", addr)
    if kind == "st":
        return ("st", addr, rng.randint(1, 99))
    return ("add", addr, rng.randint(1, 9))


def generate_program(seed: int) -> ConformProgram:
    """The program for case ``seed`` (knobs included, deterministically)."""
    rng = random.Random(seed * 0x9E3779B9 + 0xC0F0)
    knobs = draw_knobs(rng)
    schedules: List[List[Union[Transaction, object]]] = []
    for proc in range(knobs.n_processors):
        items: List[Union[Transaction, object]] = []
        for epoch in range(knobs.epochs):
            if epoch:
                items.append(BARRIER)
            for i in range(knobs.tx_per_proc_per_epoch):
                ops = [_random_op(rng, proc, knobs)
                       for _ in range(rng.randint(1, knobs.max_ops_per_tx))]
                tx_id = proc * 100_000 + epoch * 1_000 + i
                items.append(Transaction(tx_id, ops))
        schedules.append(items)
    return ConformProgram(
        n_processors=knobs.n_processors,
        schedules=schedules,
        line_size=LINE_SIZE,
        word_size=WORD_SIZE,
    )


def pattern_workload(name: str, seed: int) -> Workload:
    """One ``patterns``-source workload, sized so a case runs in well
    under a second."""
    if name == "hot-counter":
        # Every processor increments one shared word: maximal conflict,
        # and any lost or doubled commit shows in the final counter.
        return CounterWorkload(n_counters=1, increments_per_proc=6,
                               compute=3, base_addr=0)
    if name == "list-set":
        return ListSetWorkload(list_length=10, ops_per_proc=4,
                               insert_ratio=0.5, seed=seed)
    if name == "queue":
        return QueueWorkload(ops_per_proc=4, compute=10, seed=seed)
    raise ValueError(f"unknown pattern workload {name!r}; "
                     f"expected one of {PATTERN_WORKLOADS}")


def pattern_program(seed: int) -> ConformProgram:
    """The ``patterns``-source program for case ``seed``: a workload of
    :data:`PATTERN_WORKLOADS` on 4, 6 or 8 processors, its schedules
    materialised."""
    rng = random.Random(seed * 0x9E3779B9 + 1)
    name = rng.choice(PATTERN_WORKLOADS)
    n_procs = rng.choice((4, 4, 6, 8))
    return ConformProgram(
        n_processors=n_procs,
        schedules=pattern_workload(name, seed).schedules(n_procs),
        line_size=LINE_SIZE,
        word_size=WORD_SIZE,
    )


@dataclass
class ConformCase:
    """One replayable differential-test case: program + machine + faults.

    ``config_overrides`` is the JSON-able slice of
    :class:`~repro.core.config.SystemConfig` this case pins; everything
    else takes the config default, so counterexample files stay small
    and readable.
    """

    seed: int
    faults: bool
    program: ConformProgram
    config_overrides: Dict[str, Any] = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None
    source: str = "program"

    def build_config(self) -> SystemConfig:
        return SystemConfig(fault_plan=self.fault_plan,
                            **self.config_overrides)

    def build_workload(self):
        return self.program.to_workload()

    def describe(self) -> str:
        mode = "faults" if self.faults else "fault-free"
        return (f"conform seed={self.seed} ({self.source}, {mode}, "
                f"{self.program.n_processors}p, "
                f"{self.program.tx_count} txs, {self.program.op_count} ops)")

    # -- serialization (counterexample files) ------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": self.faults,
            "source": self.source,
            "program": self.program.to_dict(),
            "config_overrides": dict(self.config_overrides),
            "fault_plan": (self.fault_plan.as_dict()
                           if self.fault_plan is not None else None),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ConformCase":
        plan = data.get("fault_plan")
        return cls(
            seed=data["seed"],
            faults=data["faults"],
            program=ConformProgram.from_dict(data["program"]),
            config_overrides=dict(data["config_overrides"]),
            fault_plan=FaultPlan.from_dict(plan) if plan else None,
            source=data.get("source", "program"),
        )


def make_case(seed: int, faults: bool = False,
              source: str = "program") -> ConformCase:
    """Deterministically derive case ``seed`` of ``source`` end to end."""
    if source == "program":
        program = generate_program(seed)
        rng = random.Random(seed * 0x9E3779B9 + 0xFA57)
        extra: Dict[str, Any] = {"network_jitter": rng.randint(0, 6)}
    elif source == "patterns":
        program = pattern_program(seed)
        # Passive checks: the simulated event stream is bit-identical
        # with or without them.
        extra = {"paranoid": True}
    else:
        raise ValueError(f"unknown conform source {source!r}; "
                         f"expected one of {SOURCES}")
    overrides: Dict[str, Any] = {
        "n_processors": program.n_processors,
        "seed": seed,
        "ordered_network": False,
        **extra,
        "line_size": program.line_size,
        "word_size": program.word_size,
    }
    plan: Optional[FaultPlan] = None
    if faults:
        plan = random_fault_plan(seed, program.n_processors)
        # Small programs: tighten the watchdog so a genuine wedge is
        # diagnosed in seconds, not simulated megacycles.
        overrides["watchdog_interval"] = 25_000
        overrides["watchdog_stall_checks"] = 4
    return ConformCase(
        seed=seed, faults=faults, program=program,
        config_overrides=overrides, fault_plan=plan, source=source,
    )
