"""The oracle: an idealized reference TM machine.

This is the judge of every verified run and the *other* implementation
in the differential test.  It models the machine the paper's correctness
argument describes — OCC condition 3 (Kung & Robinson): committed
transactions behave as if executed serially in TID order — with none of
the things that make the real simulator hard: no caches, no directories,
no network, no speculation, no retries.  Magic zero-latency word memory,
one transaction at a time, strictly ascending TID order.

Independence is the whole point.  This module deliberately reimplements
line/word arithmetic and serial execution rather than importing
``repro.memory``, ``repro.processor`` or ``repro.verify``; the only
shared code is the workload *data model* (``Transaction`` / ``BARRIER``),
which both machines must agree on to run the same program at all.  A bug
that corrupts the simulator or its commit log cannot also corrupt this
machine.  ``ReferenceTM.execute`` is the only serial execution of
transaction ops in the package: ``repro.verify.serializability`` calls
it for every ``run(verify=True)`` and for every conformance case.

The oracle consumes two things:

* the *program* — per-processor transaction schedules with barrier
  epochs (as :class:`OracleTx` records, see
  :func:`program_from_schedules`);
* the *commit witness* — the (tid, tx_id, proc) triples the real machine
  claims to have committed, and nothing else (no data values: those are
  recomputed here from the program).

It first checks the witness is structurally possible (every program
transaction commits exactly once, TIDs are unique, TID order respects
per-processor program order and barrier epochs), then executes the
program serially in TID order, producing per-transaction read/write
witnesses and a final memory image for the judge to compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.workloads.base import BARRIER, Transaction

Op = Tuple


class OracleViolation(Exception):
    """The observed commit history is structurally impossible.

    ``kind`` is a stable machine-readable tag (the differ surfaces it as
    the mismatch category); ``detail`` is the human-readable diagnosis.
    """

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass(frozen=True)
class OracleTx:
    """One program transaction, located in the program's structure."""

    tx_id: int
    proc: int
    #: Position in the owning processor's program order (0-based).
    index: int
    #: Barrier epoch: number of barriers before this transaction.
    epoch: int
    ops: Tuple[Op, ...]


@dataclass(frozen=True)
class CommitWitness:
    """One commit the real machine claims: identity only, no data."""

    tid: int
    tx_id: int
    proc: int


@dataclass
class OracleCommit:
    """What the reference machine computed for one committed transaction."""

    tid: int
    tx_id: int
    proc: int
    #: (line, word, value) per ld/add op, in op order — the same witness
    #: convention the simulator's CommitRecord.reads uses.
    reads: List[Tuple[int, int, int]]
    #: (line, word, value) per st/add op, in op order.
    writes: List[Tuple[int, int, int]]


@dataclass
class OracleResult:
    """Committed history plus the final memory image."""

    commits: List[OracleCommit]
    #: (line, word) -> value; words never written are absent (== 0).
    memory: Dict[Tuple[int, int], int]

    def commit_by_tx(self) -> Dict[int, OracleCommit]:
        return {commit.tx_id: commit for commit in self.commits}


def program_from_schedules(
    schedules: Sequence[Sequence[object]],
) -> List[OracleTx]:
    """Flatten per-processor schedules (Transaction / BARRIER items) into
    located :class:`OracleTx` records."""
    txs: List[OracleTx] = []
    seen: Dict[int, int] = {}
    for proc, items in enumerate(schedules):
        epoch = 0
        index = 0
        for item in items:
            if item is BARRIER:
                epoch += 1
                continue
            if not isinstance(item, Transaction):
                raise TypeError(f"schedule item {item!r} is neither a "
                                f"Transaction nor BARRIER")
            if item.tx_id in seen:
                raise ValueError(
                    f"tx_id {item.tx_id} appears on processors "
                    f"{seen[item.tx_id]} and {proc}"
                )
            seen[item.tx_id] = proc
            txs.append(OracleTx(
                tx_id=item.tx_id, proc=proc, index=index, epoch=epoch,
                ops=tuple(tuple(op) for op in item.ops),
            ))
            index += 1
    return txs


class _MagicMemory:
    """Zero-latency flat word store; every word starts at zero."""

    def __init__(self) -> None:
        self.words: Dict[Tuple[int, int], int] = {}

    def read(self, line: int, word: int) -> int:
        return self.words.get((line, word), 0)

    def write(self, line: int, word: int, value: int) -> None:
        self.words[(line, word)] = value


class ReferenceTM:
    """Executes a program serially in TID order on magic memory."""

    def __init__(self, line_size: int = 32, word_size: int = 4) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line size must be a power of two, got {line_size}")
        if word_size <= 0 or word_size & (word_size - 1):
            raise ValueError(f"word size must be a power of two, got {word_size}")
        if word_size > line_size:
            raise ValueError("word size cannot exceed line size")
        self._line_shift = line_size.bit_length() - 1
        self._word_shift = word_size.bit_length() - 1
        self._word_mask = (line_size // word_size) - 1

    # -- address arithmetic (reimplemented on purpose; see module doc) ----

    def _locate(self, addr: int) -> Tuple[int, int]:
        return (addr >> self._line_shift,
                (addr >> self._word_shift) & self._word_mask)

    # -- the witness checks ------------------------------------------------

    def check_witness(
        self,
        program: Sequence[OracleTx],
        witness: Sequence[CommitWitness],
    ) -> List[CommitWitness]:
        """Validate structure; return the witness sorted by TID.

        Raises :class:`OracleViolation` on the first impossibility.
        """
        by_id = {tx.tx_id: tx for tx in program}
        tids_seen: Dict[int, int] = {}
        committed: Dict[int, int] = {}
        for entry in witness:
            if entry.tid in tids_seen:
                raise OracleViolation(
                    "duplicate-tid",
                    f"TID {entry.tid} claimed by tx {tids_seen[entry.tid]} "
                    f"and tx {entry.tx_id}",
                )
            tids_seen[entry.tid] = entry.tx_id
            if entry.tx_id not in by_id:
                raise OracleViolation(
                    "phantom-commit",
                    f"committed tx_id {entry.tx_id} is not in the program",
                )
            if entry.tx_id in committed:
                raise OracleViolation(
                    "duplicate-commit",
                    f"tx {entry.tx_id} committed under TIDs "
                    f"{committed[entry.tx_id]} and {entry.tid}",
                )
            committed[entry.tx_id] = entry.tid
            expected_proc = by_id[entry.tx_id].proc
            if entry.proc != expected_proc:
                raise OracleViolation(
                    "wrong-proc",
                    f"tx {entry.tx_id} committed by P{entry.proc}, "
                    f"program places it on P{expected_proc}",
                )
        missing = [tx.tx_id for tx in program if tx.tx_id not in committed]
        if missing:
            raise OracleViolation(
                "missing-commit",
                f"{len(missing)} program transaction(s) never committed "
                f"(first: tx {missing[0]})",
            )

        ordered = sorted(witness, key=lambda entry: entry.tid)
        last_index: Dict[int, int] = {}
        max_epoch = -1
        max_epoch_tid = -1
        for entry in ordered:
            tx = by_id[entry.tx_id]
            prev = last_index.get(tx.proc)
            if prev is not None and tx.index <= prev:
                raise OracleViolation(
                    "program-order",
                    f"P{tx.proc} tx {entry.tx_id} (program index {tx.index}) "
                    f"has TID {entry.tid} after a later program index {prev}",
                )
            last_index[tx.proc] = tx.index
            if tx.epoch < max_epoch:
                raise OracleViolation(
                    "epoch-order",
                    f"tx {entry.tx_id} of barrier epoch {tx.epoch} has "
                    f"TID {entry.tid} above epoch-{max_epoch} TID "
                    f"{max_epoch_tid}",
                )
            if tx.epoch > max_epoch:
                max_epoch = tx.epoch
                max_epoch_tid = entry.tid
        return ordered

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        program: Sequence[OracleTx],
        witness: Sequence[CommitWitness],
    ) -> OracleResult:
        """Run the program serially in TID order; return its history."""
        ordered = self.check_witness(program, witness)
        by_id = {tx.tx_id: tx for tx in program}
        memory = _MagicMemory()
        commits: List[OracleCommit] = []
        for entry in ordered:
            tx = by_id[entry.tx_id]
            reads: List[Tuple[int, int, int]] = []
            writes: List[Tuple[int, int, int]] = []
            for op in tx.ops:
                kind = op[0]
                if kind == "c":
                    continue
                line, word = self._locate(op[1])
                if kind == "ld":
                    reads.append((line, word, memory.read(line, word)))
                elif kind == "st":
                    memory.write(line, word, op[2])
                    writes.append((line, word, op[2]))
                elif kind == "add":
                    value = memory.read(line, word)
                    reads.append((line, word, value))
                    memory.write(line, word, value + op[2])
                    writes.append((line, word, value + op[2]))
                else:
                    raise OracleViolation(
                        "bad-op", f"tx {tx.tx_id} has unknown op {op!r}"
                    )
            commits.append(OracleCommit(
                tid=entry.tid, tx_id=tx.tx_id, proc=tx.proc,
                reads=reads, writes=writes,
            ))
        return OracleResult(commits=commits, memory=memory.words)
