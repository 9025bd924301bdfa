"""Transaction and workload abstractions.

A transaction is a straight-line sequence of operations over byte
addresses (the granularity the paper's processors see):

* ``("c", n)``          — n cycles of non-memory computation (CPI = 1, so
  also n instructions);
* ``("ld", addr)``      — load a word;
* ``("st", addr, v)``   — store the value ``v``;
* ``("add", addr, d)``  — load, add ``d``, store (a data-dependent
  read-modify-write; the strongest probe of serializability).

A workload assigns each processor a *schedule*: an iterable of
transactions interleaved with :data:`BARRIER` sentinels.  Every processor
must see the same number of barriers (the paper's benchmarks are
barrier-structured; code between barriers became transactions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

Op = Tuple


class BarrierPoint:
    """Sentinel: all processors synchronize here."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BARRIER"


BARRIER = BarrierPoint()

_VALID_OPS = {"c", "ld", "st", "add"}


@dataclass
class Transaction:
    """One atomic unit of work."""

    tx_id: int
    ops: Sequence[Op]
    label: str = ""

    def __post_init__(self) -> None:
        for op in self.ops:
            if not op or op[0] not in _VALID_OPS:
                raise ValueError(f"bad transaction op {op!r}")

    @property
    def instructions(self) -> int:
        """Instruction count at CPI=1: compute cycles plus memory ops
        (an ``add`` is a load and a store)."""
        total = 0
        for op in self.ops:
            kind = op[0]
            if kind == "c":
                total += op[1]
            elif kind == "add":
                total += 2
            else:
                total += 1
        return total

    def read_addrs(self) -> List[int]:
        return [op[1] for op in self.ops if op[0] in ("ld", "add")]

    def write_addrs(self) -> List[int]:
        return [op[1] for op in self.ops if op[0] in ("st", "add")]

    def __repr__(self) -> str:
        return f"Transaction({self.tx_id}, {len(self.ops)} ops{', ' + self.label if self.label else ''})"


ScheduleItem = Union[Transaction, BarrierPoint]
TransactionSchedule = Iterable[ScheduleItem]


class Workload:
    """Base class: a partition of transactions across processors."""

    name = "workload"

    def schedule(self, proc: int, n_procs: int) -> TransactionSchedule:
        """The ordered work items for processor ``proc`` of ``n_procs``."""
        raise NotImplementedError

    def schedules(self, n_procs: int) -> List[List[ScheduleItem]]:
        """All schedules, materialized (used by :meth:`validate` and tests;
        a verified run records the program the oracle judges as its
        processors pull it, without calling this)."""
        return [list(self.schedule(p, n_procs)) for p in range(n_procs)]

    def validate(self, n_procs: int) -> None:
        """Check the barrier structure is consistent across processors."""
        barrier_counts = set()
        seen_ids = set()
        for items in self.schedules(n_procs):
            barrier_counts.add(sum(1 for item in items if item is BARRIER))
            for item in items:
                if isinstance(item, Transaction):
                    if item.tx_id in seen_ids:
                        raise ValueError(f"duplicate tx_id {item.tx_id}")
                    seen_ids.add(item.tx_id)
        if len(barrier_counts) > 1:
            raise ValueError(
                f"inconsistent barrier counts across processors: {barrier_counts}"
            )
