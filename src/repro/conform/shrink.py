"""Greedy counterexample shrinking.

Given a failing :class:`~repro.conform.generator.ConformCase`, minimize
the *program* while preserving the failure: drop transactions (chunked,
then singly), drop whole barrier epochs, drop individual ops, narrow the
address footprint (dense line renumbering, words to 0, values to 1), and
finally drop processors whose schedules went empty.  Every candidate is
re-run through the full differential check; a reduction is kept only if
the candidate still fails *the same way* (same outcome, and for
mismatches the same first-mismatch kind), so a real protocol divergence
cannot quietly shrink into an unrelated timeout artifact.

Candidates are always well-formed by construction — barrier counts stay
equal across processors (barriers are removed from every schedule at
once, never singly), and empty programs are never proposed — so the
shrinker cannot manufacture deadlocks the original program did not have.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.conform.differ import ConformCaseResult, run_conform_case
from repro.conform.generator import ConformCase
from repro.conform.program import ConformProgram
from repro.workloads.base import BARRIER, Transaction

Schedules = List[List[Union[Transaction, object]]]


@dataclass
class ShrinkResult:
    """The minimized case plus the accounting of how it got there."""

    case: ConformCase
    result: ConformCaseResult
    evals: int
    reductions: int
    initial_txs: int
    initial_ops: int

    @property
    def final_txs(self) -> int:
        return self.case.program.tx_count

    @property
    def final_ops(self) -> int:
        return self.case.program.op_count

    def describe(self) -> str:
        return (f"shrunk {self.initial_txs} txs / {self.initial_ops} ops "
                f"-> {self.final_txs} txs / {self.final_ops} ops "
                f"({self.reductions} reductions, {self.evals} runs)")


def same_failure(base: ConformCaseResult) -> Callable[[ConformCaseResult], bool]:
    """Predicate: a candidate outcome reproduces ``base``'s failure."""
    base_kind = base.mismatches[0]["kind"] if base.mismatches else None

    def matches(candidate: ConformCaseResult) -> bool:
        if candidate.outcome != base.outcome:
            return False
        if base_kind is None:
            return True
        return bool(candidate.mismatches) and \
            candidate.mismatches[0]["kind"] == base_kind

    return matches


def _copy_schedules(schedules: Schedules) -> Schedules:
    return [list(items) for items in schedules]


def _rebuild(case: ConformCase, schedules: Schedules) -> ConformCase:
    """A new case with the given schedules (processor count follows)."""
    n = len(schedules)
    overrides = dict(case.config_overrides)
    overrides["n_processors"] = n
    return dataclasses.replace(
        case,
        program=ConformProgram(
            n_processors=n,
            schedules=schedules,
            line_size=case.program.line_size,
            word_size=case.program.word_size,
        ),
        config_overrides=overrides,
    )


def _tx_positions(schedules: Schedules) -> List[Tuple[int, int]]:
    return [
        (proc, pos)
        for proc, items in enumerate(schedules)
        for pos, item in enumerate(items)
        if isinstance(item, Transaction)
    ]


def _without_positions(schedules: Schedules,
                       drop: set) -> Schedules:
    return [
        [item for pos, item in enumerate(items) if (proc, pos) not in drop]
        for proc, items in enumerate(schedules)
    ]


class _Shrinker:
    def __init__(self, case: ConformCase,
                 matches: Callable[[ConformCaseResult], bool],
                 max_evals: int,
                 run: Callable[[ConformCase], ConformCaseResult]) -> None:
        self.case = case
        self.matches = matches
        self.max_evals = max_evals
        self.run = run
        self.evals = 0
        self.reductions = 0

    def budget_left(self) -> bool:
        return self.evals < self.max_evals

    def accept(self, candidate: ConformCase) -> bool:
        if not self.budget_left():
            return False
        self.evals += 1
        if self.matches(self.run(candidate)):
            self.case = candidate
            self.reductions += 1
            return True
        return False

    # -- phase 1: drop transactions ---------------------------------------

    def drop_transactions(self) -> bool:
        schedules = self.case.program.schedules
        positions = _tx_positions(schedules)
        before = self.reductions
        if len(positions) <= 1:
            return False
        chunk = len(positions) // 2
        while chunk >= 1 and self.budget_left():
            start = 0
            progressed = False
            while start < len(positions) and self.budget_left():
                drop = set(positions[start:start + chunk])
                if len(drop) == len(positions):
                    break  # never propose an empty program
                candidate = _rebuild(
                    self.case, _without_positions(
                        _copy_schedules(schedules), drop))
                if self.accept(candidate):
                    schedules = self.case.program.schedules
                    positions = _tx_positions(schedules)
                    progressed = True
                else:
                    start += chunk
            if not progressed:
                chunk //= 2
        return self.reductions > before

    # -- phase 2: drop barrier epochs -------------------------------------

    def drop_barriers(self) -> bool:
        changed = False
        while self.budget_left():
            schedules = self.case.program.schedules
            n_barriers = sum(1 for item in schedules[0] if item is BARRIER)
            dropped = False
            for k in range(n_barriers):
                candidate_schedules: Schedules = []
                for items in _copy_schedules(schedules):
                    seen = 0
                    row = []
                    for item in items:
                        if item is BARRIER:
                            if seen == k:
                                seen += 1
                                continue
                            seen += 1
                        row.append(item)
                    candidate_schedules.append(row)
                if self.accept(_rebuild(self.case, candidate_schedules)):
                    changed = dropped = True
                    break
            if not dropped:
                break
        return changed

    # -- phase 3: drop individual ops -------------------------------------

    def drop_ops(self) -> bool:
        changed = True
        any_change = False
        while changed and self.budget_left():
            changed = False
            schedules = self.case.program.schedules
            for proc, pos in _tx_positions(schedules):
                tx = schedules[proc][pos]
                if len(tx.ops) <= 1:
                    continue
                for drop_i in range(len(tx.ops)):
                    new_ops = [op for i, op in enumerate(tx.ops)
                               if i != drop_i]
                    candidate_schedules = _copy_schedules(
                        self.case.program.schedules)
                    candidate_schedules[proc][pos] = Transaction(
                        tx.tx_id, new_ops, label=tx.label)
                    if self.accept(_rebuild(self.case, candidate_schedules)):
                        changed = any_change = True
                        break
                if changed:
                    break
        return any_change

    # -- phase 4: narrow addresses and values ------------------------------

    def _rewrite_ops(self, rewrite) -> Optional[ConformCase]:
        schedules = _copy_schedules(self.case.program.schedules)
        touched = False
        for proc, pos in _tx_positions(schedules):
            tx = schedules[proc][pos]
            new_ops = [rewrite(op) for op in tx.ops]
            if new_ops != list(tx.ops):
                touched = True
                schedules[proc][pos] = Transaction(tx.tx_id, new_ops,
                                                   label=tx.label)
        return _rebuild(self.case, schedules) if touched else None

    def narrow_addresses(self) -> bool:
        program = self.case.program
        line_size, word_size = program.line_size, program.word_size

        def locate(addr: int) -> Tuple[int, int]:
            return addr // line_size, (addr % line_size) // word_size

        lines = sorted({
            locate(op[1])[0]
            for tx in program.transactions().values()
            for op in tx.ops if op[0] != "c"
        })
        rank = {line: i for i, line in enumerate(lines)}
        changed = False

        def densify(op):
            if op[0] == "c":
                return op
            line, word = locate(op[1])
            addr = rank[line] * line_size + word * word_size
            return (op[0], addr, *op[2:])

        def zero_words(op):
            if op[0] == "c":
                return op
            line, _ = locate(op[1])
            return (op[0], line * line_size, *op[2:])

        def unit_values(op):
            if op[0] in ("st", "add") and op[2] != 1:
                return (op[0], op[1], 1)
            if op[0] == "c" and op[1] != 1:
                return ("c", 1)
            return op

        for rewrite in (densify, zero_words, unit_values):
            if not self.budget_left():
                break
            candidate = self._rewrite_ops(rewrite)
            if candidate is not None and self.accept(candidate):
                changed = True
        return changed

    # -- phase 5: drop processors with empty schedules ---------------------

    def drop_empty_procs(self) -> bool:
        changed = False
        while self.budget_left():
            schedules = self.case.program.schedules
            if len(schedules) <= 1:
                break
            empty = [
                proc for proc, items in enumerate(schedules)
                if not any(isinstance(item, Transaction) for item in items)
            ]
            if not empty:
                break
            keep = [items for proc, items in enumerate(schedules)
                    if proc != empty[0]]
            if not self.accept(_rebuild(self.case, _copy_schedules(keep))):
                break
            changed = True
        return changed


def shrink_case(
    case: ConformCase,
    base: Optional[ConformCaseResult] = None,
    max_evals: int = 300,
    run: Callable[[ConformCase], ConformCaseResult] = run_conform_case,
) -> ShrinkResult:
    """Greedily minimize a failing case; returns the smallest reproducer.

    ``base`` is the case's known failing result (re-computed if absent).
    The phase order is drop-transactions -> drop-barriers -> drop-ops ->
    narrow-addresses -> drop-processors, looped to a fixpoint within the
    ``max_evals`` re-run budget.  ``run`` is injectable so tests (and
    one-off triage scripts) can minimize against any failure check.
    """
    if base is None:
        base = run(case)
    if base.ok:
        raise ValueError(f"case seed={case.seed} does not fail; "
                         f"nothing to shrink")
    shrinker = _Shrinker(case, same_failure(base), max_evals, run)
    initial_txs = case.program.tx_count
    initial_ops = case.program.op_count
    progressed = True
    while progressed and shrinker.budget_left():
        progressed = False
        for phase in (shrinker.drop_transactions, shrinker.drop_barriers,
                      shrinker.drop_ops, shrinker.narrow_addresses,
                      shrinker.drop_empty_procs):
            before = shrinker.reductions
            phase()
            if shrinker.reductions > before:
                progressed = True
    final = run(shrinker.case)
    return ShrinkResult(
        case=shrinker.case,
        result=final,
        evals=shrinker.evals,
        reductions=shrinker.reductions,
        initial_txs=initial_txs,
        initial_ops=initial_ops,
    )
