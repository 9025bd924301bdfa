"""Serializability judging: the run against the independent oracle.

The protocol's claim (OCC condition 3, Section 2.1) is that committed
transactions are serializable **in TID order**.  We verify it by handing
the program and the machine's bare commit witness (tid, tx_id, proc) to
:class:`~repro.oracle.machine.ReferenceTM`, which executes the program's
own ops serially in TID order on magic memory, and diffing three
surfaces:

* **commit order** — the witness must be structurally possible: every
  program transaction commits exactly once, TIDs are unique, and TID
  order respects per-processor program order and barrier epochs
  (:class:`~repro.oracle.machine.OracleViolation` kinds surface
  directly as mismatches);
* **read-value witnesses** — each committed transaction's observed
  (line, word, value) load sequence (:class:`CommitRecord`) must equal
  what the oracle computes (the commit log's recorded ops are also
  checked against the program, so a corrupted log cannot vouch for
  itself);
* **per-word final memory** — the drained machine image must equal the
  oracle's magic memory, word for word, zeros implicit on both sides.

Because workload transactions include data-dependent read-modify-writes
(``add`` ops), this is a strong end-to-end check: lost updates, write
skew, stale reads and partial commits change the observed read values
or the final memory image and are caught.  The oracle shares no code
with the simulator beyond the workload data model, so a bug cannot
corrupt the machine and its judge the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.oracle.machine import (
    CommitWitness,
    OracleViolation,
    ReferenceTM,
    program_from_schedules,
)
from repro.workloads.base import Transaction

#: Cap on recorded mismatches per judgement (the first one is what you
#: triage; the rest just prove it is not a one-off).
MAX_MISMATCHES = 20


@dataclass
class CommitRecord:
    """What one committed transaction did and saw (final attempt only)."""

    tid: int
    tx: Transaction
    proc: int
    reads: List[Tuple[int, int, int]]  # (line, word, value) in op order
    commit_time: int = 0


@dataclass
class Mismatch:
    """One divergence between the machine and the oracle."""

    kind: str
    detail: str
    tx_id: Optional[int] = None
    tid: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "detail": self.detail}
        if self.tx_id is not None:
            data["tx_id"] = self.tx_id
        if self.tid is not None:
            data["tid"] = self.tid
        return data


class ReplayMismatch(AssertionError):
    """The concurrent execution diverged from the oracle's serial one.

    ``mismatches`` holds every :class:`Mismatch` found (up to
    :data:`MAX_MISMATCHES`); the message names the first.
    """

    def __init__(self, mismatches: List[Mismatch]) -> None:
        first = mismatches[0]
        more = f" (+{len(mismatches) - 1} more)" if len(mismatches) > 1 else ""
        super().__init__(f"{first.kind}: {first.detail}{more}")
        self.mismatches = mismatches


def judge(
    schedules: Sequence[Sequence[object]],
    commit_log: Sequence[CommitRecord],
    memory_image: Dict[int, List[int]],
    line_size: int = 32,
    word_size: int = 4,
) -> List[Mismatch]:
    """All divergences between one run and the oracle's execution of
    ``schedules`` (per-processor Transaction / BARRIER items)."""
    try:
        program = program_from_schedules(schedules)
    except ValueError as exc:
        return [Mismatch("bad-program", str(exc))]
    witness = [CommitWitness(rec.tid, rec.tx.tx_id, rec.proc)
               for rec in commit_log]
    try:
        reference = ReferenceTM(line_size, word_size).execute(program, witness)
    except OracleViolation as exc:
        return [Mismatch(exc.kind, exc.detail)]

    mismatches: List[Mismatch] = []

    def add(mismatch: Mismatch) -> bool:
        mismatches.append(mismatch)
        return len(mismatches) >= MAX_MISMATCHES

    program_txs = {item.tx_id: item for items in schedules for item in items
                   if isinstance(item, Transaction)}
    by_tx = reference.commit_by_tx()
    for rec in sorted(commit_log, key=lambda r: r.tid):
        tx = program_txs[rec.tx.tx_id]
        # The same object carries the same ops list: nothing to compare.
        if rec.tx is not tx:
            prog_ops = tuple(tuple(op) for op in tx.ops)
            log_ops = tuple(tuple(op) for op in rec.tx.ops)
            if prog_ops != log_ops:
                if add(Mismatch(
                    "ops-mismatch",
                    f"commit log ops {log_ops!r} differ from program ops "
                    f"{prog_ops!r}",
                    tx_id=rec.tx.tx_id, tid=rec.tid,
                )):
                    return mismatches
                continue
        expected = by_tx[rec.tx.tx_id].reads
        observed = [tuple(read) for read in rec.reads]
        if observed != expected:
            index = next(
                (i for i, (obs, exp) in enumerate(zip(observed, expected))
                 if obs != exp),
                min(len(observed), len(expected)),
            )
            obs_at = observed[index] if index < len(observed) else None
            exp_at = expected[index] if index < len(expected) else None
            if add(Mismatch(
                "read-witness",
                f"P{rec.proc} read #{index}: observed {obs_at}, oracle "
                f"expects {exp_at} ({len(observed)}/{len(expected)} reads)",
                tx_id=rec.tx.tx_id, tid=rec.tid,
            )):
                return mismatches

    oracle_memory = reference.memory

    def machine_word(line: int, word: int) -> int:
        values = memory_image.get(line)
        return values[word] if values else 0

    wrong = [key for key, value in oracle_memory.items()
             if machine_word(*key) != value]
    wrong += [(line, word) for line, values in memory_image.items()
              for word, value in enumerate(values)
              if value and (line, word) not in oracle_memory]
    for line, word in sorted(wrong):
        if add(Mismatch(
            "final-memory",
            f"line {line} word {word}: machine has "
            f"{machine_word(line, word)}, oracle has "
            f"{oracle_memory.get((line, word), 0)}",
        )):
            return mismatches
    return mismatches


class SerializabilityChecker:
    """Judges a run with the oracle and raises on any divergence.

    ``ScalableTCCSystem.run`` creates one at call time and calls
    :meth:`check`, so an outside tracer can time verification by
    wrapping ``SerializabilityChecker.check`` on the class.
    """

    def __init__(self, line_size: int = 32, word_size: int = 4) -> None:
        self.line_size = line_size
        self.word_size = word_size

    def check(
        self,
        schedules: Sequence[Sequence[object]],
        log: Sequence[CommitRecord],
        machine_image: Dict[int, List[int]],
    ) -> None:
        """Raise :class:`ReplayMismatch` unless the run conforms."""
        mismatches = judge(schedules, log, machine_image,
                           self.line_size, self.word_size)
        if mismatches:
            raise ReplayMismatch(mismatches)
