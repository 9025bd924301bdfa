"""Parameterized synthetic transactional workloads.

This is the substitution for the paper's benchmark binaries: a generator
that produces transaction schedules whose statistics match a target
profile.  The knobs correspond directly to the per-application
characteristics of Table 3 and the behavioural notes of Section 4.2:

* ``tx_instructions``          — mean non-memory work per transaction
  (CPI=1, so cycles == instructions);
* ``reads_per_tx`` / ``writes_per_tx`` — read-/write-set sizes;
* ``shared_fraction``          — how many reads hit the shared pool
  (communication);
* ``write_shared_fraction``    — how many writes hit the shared pool
  (true conflicts + commit invalidation traffic);
* ``hot_lines`` / ``conflict_skew`` — size and skew of the shared pool:
  small, skewed pools produce frequent violations;
* ``spread_pages``             — over how many pages the shared pool is
  scattered (≈ directories touched per commit);
* ``barrier_every``            — transactions between barriers (load
  imbalance and idle time);
* ``rmw_fraction``             — fraction of shared writes that are
  data-dependent read-modify-writes.

The *total* transaction count is fixed; processors split it evenly, so
speedup measurements against the 1-processor run are meaningful.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Iterator, List, Sequence

from repro.workloads.base import BARRIER, Transaction, Workload

PAGE = 4096


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical shape of one application's transactions."""

    name: str
    total_transactions: int = 256
    tx_instructions: int = 1000
    tx_instructions_cv: float = 0.3  # coefficient of variation
    reads_per_tx: int = 8
    writes_per_tx: int = 4
    shared_fraction: float = 0.2
    write_shared_fraction: float = 0.1
    hot_lines: int = 256
    conflict_skew: float = 1.0  # zipf exponent over the shared pool
    spread_pages: int = 8
    private_lines: int = 256
    barrier_every: int = 0
    rmw_fraction: float = 0.5
    seed: int = 42

    def scaled(self, factor: float) -> "WorkloadProfile":
        """Same shape, different total volume (for quick test runs)."""
        return replace(
            self,
            total_transactions=max(1, int(self.total_transactions * factor)),
        )


class SyntheticWorkload(Workload):
    """Generates deterministic schedules matching a profile."""

    def __init__(self, profile: WorkloadProfile, line_size: int = 32, word_size: int = 4):
        self.profile = profile
        self.line_size = line_size
        self.word_size = word_size
        self.words_per_line = line_size // word_size
        self.name = profile.name
        # Shared pool layout: hot lines scattered over spread_pages pages,
        # starting high enough to avoid private regions.
        self._shared_base = 1 << 28
        # Inlined rng.choices(range(n), weights=...): precompute the
        # cumulative weights once and draw with a single rng.random() +
        # bisect — the exact draw sequence choices() consumes.
        self._zipf_cum = list(accumulate(
            self._make_zipf(profile.hot_lines, profile.conflict_skew)))
        self._zipf_total = self._zipf_cum[-1] + 0.0
        self._zipf_hi = profile.hot_lines - 1
        self._sigma = max(1.0, profile.tx_instructions * profile.tx_instructions_cv)
        # randrange(n) draws getrandbits(n.bit_length()) until below n.
        self._word_bits = self.words_per_line.bit_length()
        self._line_bits = profile.private_lines.bit_length()
        # rng.shuffle(x) swaps x[i] with x[randbelow(i + 1)] for i from
        # len(x) - 1 down to 1; every transaction has the same length.
        self._shuffle_steps = [
            (i, (i + 1).bit_length())
            for i in reversed(range(1, profile.reads_per_tx + profile.writes_per_tx))
        ]

    @staticmethod
    def _make_zipf(n: int, skew: float) -> List[float]:
        weights = [1.0 / (i + 1) ** skew for i in range(n)]
        total = sum(weights)
        return [w / total for w in weights]

    # -- schedule generation ------------------------------------------------

    def tx_count_for(self, proc: int, n_procs: int) -> int:
        total = self.profile.total_transactions
        return total // n_procs + (1 if proc < total % n_procs else 0)

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        profile = self.profile
        rng = random.Random(profile.seed * 1_000_003 + proc)
        count = self.tx_count_for(proc, n_procs)
        max_count = self.tx_count_for(0, n_procs)
        since_barrier = 0
        for i in range(count):
            yield self._make_tx(proc, i, rng)
            since_barrier += 1
            if profile.barrier_every and since_barrier >= profile.barrier_every:
                since_barrier = 0
                yield BARRIER
        if profile.barrier_every:
            # Processors with fewer transactions still join every barrier.
            barriers_emitted = count // profile.barrier_every
            total_barriers = max_count // profile.barrier_every
            for _ in range(total_barriers - barriers_emitted):
                yield BARRIER

    def _make_tx(self, proc: int, index: int, rng: random.Random) -> Transaction:
        """One transaction: ``reads_per_tx`` loads, then ``writes_per_tx``
        stores or adds, shuffled, with the compute spread between them.

        Every ``rng.randrange(n)``, and the shuffle's, is inlined as
        ``getrandbits(k)`` with ``k = n.bit_length()``, redrawn while
        ``>= n``: the exact bits ``Random._randbelow`` consumes, so
        schedules are bit-identical to the ``randrange``/``shuffle``
        form.
        """
        profile = self.profile
        random_ = rng.random
        getrandbits = rng.getrandbits
        reads = profile.reads_per_tx
        shared_fraction = profile.shared_fraction
        write_shared_fraction = profile.write_shared_fraction
        rmw_fraction = profile.rmw_fraction
        shared_base = self._shared_base
        spread = profile.spread_pages
        zipf_cum = self._zipf_cum
        zipf_total = self._zipf_total
        zipf_hi = self._zipf_hi
        line_size = self.line_size
        word_size = self.word_size
        words = self.words_per_line
        word_bits = self._word_bits
        lines = profile.private_lines
        line_bits = self._line_bits
        private_base = (1 + proc) * (1 << 22)

        compute = max(10, int(rng.gauss(profile.tx_instructions, self._sigma)))
        accesses: List = []
        for i in range(reads + profile.writes_per_tx):
            write = i >= reads
            shared = random_() < (write_shared_fraction if write
                                  else shared_fraction)
            if shared:
                hot = bisect(zipf_cum, random_() * zipf_total, 0, zipf_hi)
                line, page = divmod(hot, spread)
                base = shared_base + page * PAGE + line * line_size
            else:
                line = getrandbits(line_bits)
                while line >= lines:
                    line = getrandbits(line_bits)
                base = private_base + line * line_size
            word = getrandbits(word_bits)
            while word >= words:
                word = getrandbits(word_bits)
            addr = base + word * word_size
            if not write:
                accesses.append(("ld", addr))
            elif shared and random_() < rmw_fraction:
                accesses.append(("add", addr, 1))
            else:
                # randrange(1, 1 << 16) is 1 + randbelow(65535).
                value = getrandbits(16)
                while value >= 65535:
                    value = getrandbits(16)
                accesses.append(("st", addr, value + 1))
        for i, bits in self._shuffle_steps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            accesses[i], accesses[j] = accesses[j], accesses[i]

        # Interleave the compute between the memory accesses.
        chunk = compute // (len(accesses) + 1)
        ops: List = []
        if chunk:
            slice_op = ("c", chunk)
            for access in accesses:
                ops.append(slice_op)
                ops.append(access)
        else:
            ops.extend(accesses)
        ops.append(("c", max(1, compute - chunk * len(accesses))))
        return Transaction(proc * 1_000_000 + index, ops, label=profile.name)
