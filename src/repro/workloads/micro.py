"""Microbenchmark workloads.

Small targeted workloads used by unit/integration tests, examples and the
ablation benches: shared counters (high conflict, data-dependent RMW),
fully private work (zero conflict), false sharing (word- vs
line-granularity), producer/consumer flag communication (true sharing and
owner forwarding), and a starvation scenario (one long transaction versus
a storm of small conflicting committers).
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads.base import BARRIER, Transaction, Workload

PAGE = 4096


def _tx_id(proc: int, index: int) -> int:
    return proc * 1_000_000 + index


class CounterWorkload(Workload):
    """Every processor increments randomly chosen shared counters.

    The increments are ``add`` ops (load + store of the loaded value), so
    any lost update or stale read fails the oracle's serializability
    check.  Each counter sits on its own page so counters spread across
    directories.
    """

    name = "counters"

    def __init__(
        self,
        n_counters: int = 4,
        increments_per_proc: int = 10,
        compute: int = 50,
        seed: int = 0,
        base_addr: int = 1 << 20,
    ) -> None:
        self.n_counters = n_counters
        self.increments_per_proc = increments_per_proc
        self.compute = compute
        self.seed = seed
        self.base_addr = base_addr

    def counter_addr(self, index: int) -> int:
        return self.base_addr + index * PAGE

    def expected_total(self, n_procs: int) -> int:
        return n_procs * self.increments_per_proc

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        rng = random.Random(self.seed * 7919 + proc)
        for i in range(self.increments_per_proc):
            counter = rng.randrange(self.n_counters)
            ops = [
                ("c", self.compute),
                ("add", self.counter_addr(counter), 1),
            ]
            yield Transaction(_tx_id(proc, i), ops, label=f"inc{counter}")


class PrivateWorkload(Workload):
    """Each processor reads and writes only its own pages: the
    embarrassingly parallel case (zero conflicts, zero remote sharing
    after first touch)."""

    name = "private"

    def __init__(
        self,
        tx_per_proc: int = 10,
        lines_per_tx: int = 4,
        compute: int = 100,
        line_size: int = 32,
        seed: int = 0,
    ) -> None:
        self.tx_per_proc = tx_per_proc
        self.lines_per_tx = lines_per_tx
        self.compute = compute
        self.line_size = line_size
        self.seed = seed

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        base = (1 + proc) * (64 * PAGE)
        rng = random.Random(self.seed * 31 + proc)
        for i in range(self.tx_per_proc):
            ops: List = [("c", self.compute)]
            for j in range(self.lines_per_tx):
                addr = base + ((i * self.lines_per_tx + j) % 512) * self.line_size
                ops.append(("ld", addr))
                ops.append(("st", addr, rng.randrange(1 << 16)))
            yield Transaction(_tx_id(proc, i), ops)


class FalseSharingWorkload(Workload):
    """Processors write *different words of the same lines*.

    With word-granularity speculative state there are no true conflicts;
    with line-granularity tracking every commit violates the other
    writers — the A3 ablation.
    """

    name = "false-sharing"

    def __init__(
        self,
        n_lines: int = 2,
        tx_per_proc: int = 8,
        compute: int = 50,
        line_size: int = 32,
        word_size: int = 4,
        base_addr: int = 1 << 22,
    ) -> None:
        self.n_lines = n_lines
        self.tx_per_proc = tx_per_proc
        self.compute = compute
        self.line_size = line_size
        self.word_size = word_size
        self.base_addr = base_addr

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        words_per_line = self.line_size // self.word_size
        word = proc % words_per_line
        for i in range(self.tx_per_proc):
            line_index = i % self.n_lines
            addr = (
                self.base_addr
                + line_index * self.line_size
                + word * self.word_size
            )
            ops = [("c", self.compute), ("add", addr, 1)]
            yield Transaction(_tx_id(proc, i), ops)


class ProducerConsumerWorkload(Workload):
    """Barrier-phased neighbour communication.

    In each phase every processor publishes a value, then (after a
    barrier) reads its left neighbour's value — exercising commit
    invalidations, owner forwarding, and write-backs on every phase.
    """

    name = "producer-consumer"

    def __init__(self, phases: int = 4, compute: int = 50, base_addr: int = 1 << 23) -> None:
        self.phases = phases
        self.compute = compute
        self.base_addr = base_addr

    def flag_addr(self, proc: int) -> int:
        return self.base_addr + proc * PAGE

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        left = (proc - 1) % n_procs
        index = 0
        for phase in range(self.phases):
            produce = [
                ("c", self.compute),
                ("st", self.flag_addr(proc), phase * 1000 + proc + 1),
            ]
            yield Transaction(_tx_id(proc, index), produce, label=f"produce{phase}")
            index += 1
            yield BARRIER
            consume = [("c", self.compute), ("ld", self.flag_addr(left))]
            yield Transaction(_tx_id(proc, index), consume, label=f"consume{phase}")
            index += 1
            yield BARRIER


class StarvationWorkload(Workload):
    """One long reader transaction against a storm of small writers.

    Without TID retention the long transaction on processor 0 keeps
    getting violated by the writers; the retention policy eventually
    gives it the lowest TID in the system, after which nothing can
    violate it (Section 3.3, forward-progress guarantee).
    """

    name = "starvation"

    def __init__(
        self,
        hot_lines: int = 4,
        long_compute: int = 2000,
        writer_txs: int = 30,
        writer_compute: int = 10,
        line_size: int = 32,
        base_addr: int = 1 << 24,
    ) -> None:
        self.hot_lines = hot_lines
        self.long_compute = long_compute
        self.writer_txs = writer_txs
        self.writer_compute = writer_compute
        self.line_size = line_size
        self.base_addr = base_addr

    def hot_addr(self, index: int) -> int:
        # All hot lines on one page so they share a home directory.
        return self.base_addr + index * self.line_size

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        if proc == 0:
            # The victim: reads every hot line around a long computation.
            ops: List = []
            for index in range(self.hot_lines):
                ops.append(("ld", self.hot_addr(index)))
                ops.append(("c", self.long_compute // self.hot_lines))
            ops.append(("st", self.base_addr + 63 * self.line_size, 777))
            yield Transaction(_tx_id(proc, 0), ops, label="long-reader")
        else:
            rng = random.Random(1234 + proc)
            for i in range(self.writer_txs):
                index = rng.randrange(self.hot_lines)
                ops = [
                    ("c", self.writer_compute),
                    ("add", self.hot_addr(index), 1),
                ]
                yield Transaction(_tx_id(proc, i), ops, label="writer")
