"""Classic transactional-memory data-structure patterns.

A workload pack of the access patterns the TM literature benchmarks
with, expressed as address traces over flat memory layouts:

* :class:`ListSetWorkload` — a sorted linked-list set: lookups read a
  prefix of nodes; inserts also write one node and the predecessor's
  next pointer.  Conflict probability grows with list length (long
  read prefixes overlap every writer) — the classic "lists are hard
  for TM" behaviour.
* :class:`QueueWorkload` — a shared FIFO with head/tail counters:
  enqueues contend on the tail, dequeues on the head; the two ends
  conflict only when the queue is short.  Head/tail live on separate
  lines so word granularity keeps the ends independent.

All addresses are deterministic per (seed, processor), so every run is
replay-verifiable like the rest of the suite.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads.base import Transaction, Workload

LINE = 32
PAGE = 4096


class ListSetWorkload(Workload):
    """Sorted linked-list set operations.

    The list's N nodes live one per cache line.  A lookup(key) reads
    nodes 0..k (the traversal prefix); an insert(key) reads the prefix
    and writes node k's next pointer plus a fresh node.  Transactions
    conflict when one's traversal prefix covers another's updated link —
    exactly the list pathology the TM literature discusses.
    """

    name = "list-set"

    def __init__(
        self,
        list_length: int = 24,
        ops_per_proc: int = 12,
        insert_ratio: float = 0.3,
        compute_per_node: int = 15,
        seed: int = 5,
        base_addr: int = 1 << 28,
    ) -> None:
        self.list_length = list_length
        self.ops_per_proc = ops_per_proc
        self.insert_ratio = insert_ratio
        self.compute_per_node = compute_per_node
        self.seed = seed
        self.base_addr = base_addr

    def node_addr(self, index: int) -> int:
        return self.base_addr + index * LINE

    def free_node_addr(self, proc: int, op: int) -> int:
        # freshly allocated nodes: per-processor pages beyond the list
        return self.base_addr + PAGE * (4 + proc) + op * LINE

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        rng = random.Random(self.seed * 4421 + proc)
        for i in range(self.ops_per_proc):
            depth = rng.randrange(1, self.list_length)
            ops: List = []
            for node in range(depth):
                ops.append(("ld", self.node_addr(node)))  # read next ptr
                ops.append(("c", self.compute_per_node))
            if rng.random() < self.insert_ratio:
                # link a fresh node after the predecessor
                ops.append(("st", self.free_node_addr(proc, i), depth))
                ops.append(("add", self.node_addr(depth - 1) + 4, 1))
                label = f"insert@{depth}"
            else:
                label = f"lookup@{depth}"
            yield Transaction(proc * 100_000 + i, ops, label=label)


class QueueWorkload(Workload):
    """A shared FIFO: head and tail counters on separate lines.

    Enqueuers increment the tail and write a slot; dequeuers increment
    the head and read a slot.  Tail/tail and head/head operations
    conflict; enqueue/dequeue do not (distinct lines) unless they pick
    the same slot.
    """

    name = "queue"

    def __init__(
        self,
        ops_per_proc: int = 10,
        n_slots: int = 256,
        compute: int = 40,
        seed: int = 9,
        base_addr: int = 1 << 29,
    ) -> None:
        self.ops_per_proc = ops_per_proc
        self.n_slots = n_slots
        self.compute = compute
        self.seed = seed
        self.base_addr = base_addr

    @property
    def head_addr(self) -> int:
        return self.base_addr

    @property
    def tail_addr(self) -> int:
        return self.base_addr + LINE

    def slot_addr(self, index: int) -> int:
        return self.base_addr + PAGE + (index % self.n_slots) * 4

    def schedule(self, proc: int, n_procs: int) -> Iterator:
        rng = random.Random(self.seed * 7573 + proc)
        # even processors enqueue, odd processors dequeue
        enqueuer = proc % 2 == 0
        for i in range(self.ops_per_proc):
            slot = rng.randrange(self.n_slots)
            if enqueuer:
                ops = [
                    ("c", self.compute),
                    ("add", self.tail_addr, 1),
                    ("st", self.slot_addr(slot), proc * 1000 + i + 1),
                ]
                label = "enqueue"
            else:
                ops = [
                    ("c", self.compute),
                    ("add", self.head_addr, 1),
                    ("ld", self.slot_addr(slot)),
                ]
                label = "dequeue"
            yield Transaction(proc * 100_000 + i, ops, label=label)
