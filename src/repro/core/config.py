"""System configuration — Table 2 of the paper, as a dataclass.

The defaults, with the fixed costs :class:`SystemConfig` names, reproduce
the paper's simulated machine:

    CPU          single-issue PowerPC-like cores, CPI = 1.0
    L1           32 KB, 32-byte lines, 4-way, 1-cycle latency
    L2           512 KB, 32-byte lines, 8-way, 6-cycle latency
    ICN          2-D grid, 3 cycles/link (Figure 8 sweeps 1..8)
    Main memory  100 cycles
    Directory    full-bit-vector sharers, first-touch allocation,
                 10-cycle directory cache
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class SystemConfig:
    """All architecture knobs for one simulated machine.

    What the paper fixes is not a knob: pages are placed first-touch in
    4 KB pages (:data:`repro.memory.address.PAGE_SIZE`); the L1 and L2
    geometry and hit latencies are ``L1_SIZE``, ``L1_WAYS``,
    ``L1_LATENCY``, ``L2_SIZE``, ``L2_WAYS`` and ``L2_LATENCY`` of
    :mod:`repro.memory.hierarchy`; the directory's occupancy and the
    main-memory access are ``DIRECTORY_LATENCY`` and ``MEMORY_LATENCY``
    of :mod:`repro.directory.controller`; the router, local-delivery and
    link-bandwidth costs are constants of
    :mod:`repro.network.interconnect`; the TID vendor sits at node 0
    (:data:`repro.core.tid.VENDOR_NODE`); the watchdog gives up after
    :data:`repro.faults.watchdog.STALL_CHECKS` flat samples; and the
    hardened protocol and the progress watchdog are on exactly when
    ``fault_plan`` is set.
    """

    n_processors: int = 8

    # Memory geometry
    line_size: int = 32
    word_size: int = 4

    # Speculative-state tracking granularity: "word" or "line"
    granularity: str = "word"

    # Interconnect
    link_latency: int = 3
    ordered_network: bool = False
    network_jitter: int = 2

    # Directory
    #: Capacity of the directory cache in entries (None = ideal/infinite).
    #: A message touching a line whose directory state is not cached pays
    #: an extra memory access to fetch it (Table 2's "directory cache").
    directory_cache_entries: Optional[int] = None

    # Protocol policy
    commit_backend: str = "scalable"  # "scalable" | "token" (small-scale TCC)
    write_through_commit: bool = False  # ablation: data pushed home at commit
    retention_threshold: int = 4  # violations before a TID is retained
    #: Sharer-vector coarseness: 1 = the paper's full bit vector (one bit
    #: per processor); k > 1 = one bit per group of k processors, so an
    #: invalidation fans out to the whole group (extra spurious
    #: invalidations — the classic directory-size/precision trade-off).
    sharer_group_size: int = 1

    # Tracing
    #: Record a structured protocol event log (repro.tracing) at
    #: ``system.events``; off by default (zero overhead).
    event_log: bool = False

    # Verification
    #: Check machine-wide protocol invariants every ``PARANOID_INTERVAL``
    #: cycles (repro.core.system) during the run (slow; for debugging
    #: protocol changes).
    paranoid: bool = False

    # Fault injection and resilience (repro.faults)
    #: Faults to inject this run (None = perfect fabric, the default;
    #: every fault-free code path is bit-identical to a build without
    #: the faults subsystem).  Setting one also turns on the hardened
    #: protocol and the progress watchdog (:attr:`protocol_hardened`).
    fault_plan: Optional[FaultPlan] = None
    #: The watchdog raises WatchdogStall after ``STALL_CHECKS``
    #: consecutive ``watchdog_interval``-cycle windows without a commit.
    watchdog_interval: int = 50_000

    # Reproducibility
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ValueError("need at least one processor")
        if self.granularity not in ("word", "line"):
            raise ValueError(f"granularity must be 'word' or 'line', got {self.granularity!r}")
        if self.commit_backend not in ("scalable", "token"):
            raise ValueError(
                f"commit_backend must be 'scalable' or 'token', got {self.commit_backend!r}"
            )
        for name in ("line_size", "word_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.line_size % self.word_size:
            raise ValueError("line size must be a multiple of word size")
        if self.retention_threshold < 1:
            raise ValueError("retention threshold must be >= 1")
        if self.sharer_group_size < 1:
            raise ValueError("sharer group size must be >= 1")
        for name in ("link_latency", "network_jitter"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.fault_plan is not None:
            if not isinstance(self.fault_plan, FaultPlan):
                raise ValueError(
                    f"fault_plan must be a FaultPlan, got {self.fault_plan!r}"
                )
            if self.commit_backend == "token":
                raise ValueError(
                    "fault injection requires the 'scalable' commit backend "
                    "(token-protocol messages have no end-to-end retry)"
                )
        if self.watchdog_interval < 1:
            raise ValueError(
                f"watchdog_interval must be >= 1, got {self.watchdog_interval}"
            )

    @property
    def protocol_hardened(self) -> bool:
        """Whether the seq/ack + retry protocol paths and the progress
        watchdog are active: exactly when a fault plan is set."""
        return self.fault_plan is not None

    @property
    def words_per_line(self) -> int:
        return self.line_size // self.word_size

    def describe(self) -> str:
        """Human-readable Table 2-style summary."""
        from repro.directory.controller import DIRECTORY_LATENCY, MEMORY_LATENCY
        from repro.memory import hierarchy as h

        lines = [
            f"CPU          {self.n_processors} single-issue cores (CPI=1.0)",
            f"L1           {h.L1_SIZE // 1024}-KB, {self.line_size}-byte lines, "
            f"{h.L1_WAYS}-way, {h.L1_LATENCY}-cycle",
            f"L2           {h.L2_SIZE // 1024}-KB, {self.line_size}-byte lines, "
            f"{h.L2_WAYS}-way, {h.L2_LATENCY}-cycle",
            f"ICN          2D grid, {self.link_latency} cycles/link"
            + ("" if not self.ordered_network else " (ordered)"),
            f"Main memory  {MEMORY_LATENCY} cycles",
            "Directory    full-bit-vector sharers, first-touch allocate, "
            f"{DIRECTORY_LATENCY}-cycle directory cache",
            f"Tracking     {self.granularity}-granularity speculative state",
            f"Commit       {self.commit_backend}"
            + (", write-through" if self.write_through_commit else ", write-back"),
        ]
        return "\n".join(lines)
