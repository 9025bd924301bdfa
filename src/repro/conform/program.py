"""Transactional programs as pure data.

A :class:`ConformProgram` is the shared input of the differential test:
per-processor schedules of :class:`~repro.workloads.base.Transaction`
objects interleaved with barriers, plus the memory geometry both
machines must agree on.  It converts losslessly to

* a simulator :class:`~repro.workloads.base.Workload`
  (:meth:`ConformProgram.to_workload`), whose schedules are also what
  the oracle judge reads, and
* canonical JSON (:meth:`to_dict` / :meth:`from_dict`) — the format
  counterexample files pin, so a shrunk failing program replays forever,
  and the way to bring an explicit program of your own (see
  ``examples/trace_replay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Union

from repro.workloads.base import BARRIER, Transaction, Workload

#: JSON marker for a barrier inside a serialized schedule.
_BARRIER_JSON = "barrier"


class ConformWorkload(Workload):
    """A scripted workload replaying one program's schedules."""

    name = "conform"

    def __init__(self, program: "ConformProgram") -> None:
        self.program = program

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        if n_procs != self.program.n_processors:
            raise ValueError(
                f"program is for {self.program.n_processors} processors, "
                f"machine has {n_procs}"
            )
        return iter(self.program.schedules[proc])


@dataclass
class ConformProgram:
    """One transactional program, fully explicit and picklable."""

    n_processors: int
    #: Per processor: Transaction objects and BARRIER sentinels.
    schedules: List[List[Union[Transaction, object]]]
    line_size: int = 32
    word_size: int = 4

    def __post_init__(self) -> None:
        if len(self.schedules) != self.n_processors:
            raise ValueError(
                f"{len(self.schedules)} schedules for "
                f"{self.n_processors} processors"
            )

    # -- structure ---------------------------------------------------------

    def transactions(self) -> Dict[int, Transaction]:
        """tx_id -> Transaction over the whole program."""
        txs: Dict[int, Transaction] = {}
        for items in self.schedules:
            for item in items:
                if isinstance(item, Transaction):
                    if item.tx_id in txs:
                        raise ValueError(f"duplicate tx_id {item.tx_id}")
                    txs[item.tx_id] = item
        return txs

    @property
    def tx_count(self) -> int:
        return sum(
            1 for items in self.schedules
            for item in items if isinstance(item, Transaction)
        )

    @property
    def op_count(self) -> int:
        return sum(
            len(item.ops) for items in self.schedules
            for item in items if isinstance(item, Transaction)
        )

    def to_workload(self) -> ConformWorkload:
        return ConformWorkload(self)

    def validate(self) -> None:
        """Barrier/tx_id consistency, via the Workload contract."""
        self.to_workload().validate(self.n_processors)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        schedules = []
        for items in self.schedules:
            row: List[Any] = []
            for item in items:
                if item is BARRIER:
                    row.append(_BARRIER_JSON)
                else:
                    row.append({
                        "tx_id": item.tx_id,
                        "ops": [list(op) for op in item.ops],
                        **({"label": item.label} if item.label else {}),
                    })
            schedules.append(row)
        return {
            "n_processors": self.n_processors,
            "line_size": self.line_size,
            "word_size": self.word_size,
            "schedules": schedules,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ConformProgram":
        schedules: List[List[Union[Transaction, object]]] = []
        for row in data["schedules"]:
            items: List[Union[Transaction, object]] = []
            for entry in row:
                if entry == _BARRIER_JSON:
                    items.append(BARRIER)
                elif (isinstance(entry, dict) and "tx_id" in entry
                      and "ops" in entry):
                    items.append(Transaction(
                        entry["tx_id"],
                        [tuple(op) for op in entry["ops"]],
                        label=entry.get("label", ""),
                    ))
                else:
                    raise ValueError(f"bad schedule item: {entry!r}")
            schedules.append(items)
        return cls(
            n_processors=data["n_processors"],
            schedules=schedules,
            line_size=data.get("line_size", 32),
            word_size=data.get("word_size", 4),
        )
