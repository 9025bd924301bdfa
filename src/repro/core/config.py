"""System configuration — Table 2 of the paper, as a dataclass.

Defaults reproduce the paper's simulated machine:

    CPU          single-issue PowerPC-like cores, CPI = 1.0
    L1           32 KB, 32-byte lines, 4-way, 1-cycle latency
    L2           512 KB, 32-byte lines, 8-way, 6-cycle latency
    ICN          2-D grid, 3 cycles/link (Figure 8 sweeps 1..8)
    Main memory  100 cycles
    Directory    full-bit-vector sharers, first-touch allocation,
                 10-cycle directory cache
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class SystemConfig:
    """All architecture knobs for one simulated machine."""

    n_processors: int = 8

    # Memory geometry
    line_size: int = 32
    word_size: int = 4

    # Private cache hierarchy
    l1_size: int = 32 * 1024
    l1_ways: int = 4
    l1_latency: int = 1
    l2_size: int = 512 * 1024
    l2_ways: int = 8
    l2_latency: int = 6

    # Speculative-state tracking granularity: "word" or "line"
    granularity: str = "word"

    # Interconnect
    link_latency: int = 3
    router_latency: int = 1
    local_latency: int = 1
    link_bytes_per_cycle: Optional[int] = 16
    ordered_network: bool = False
    network_jitter: int = 2

    # Directory and memory
    directory_latency: int = 10
    memory_latency: int = 100
    #: Capacity of the directory cache in entries (None = ideal/infinite).
    #: A message touching a line whose directory state is not cached pays
    #: an extra memory access to fetch it (Table 2's "directory cache").
    directory_cache_entries: Optional[int] = None
    first_touch: bool = True
    page_size: int = 4096

    # Protocol policy
    commit_backend: str = "scalable"  # "scalable" | "token" (small-scale TCC)
    write_through_commit: bool = False  # ablation: data pushed home at commit
    retention_threshold: int = 4  # violations before a TID is retained
    tid_vendor_node: int = 0
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
    #: Check machine-wide protocol invariants every ``paranoid_interval``
    #: cycles during the run (slow; for debugging protocol changes).
    paranoid: bool = False
    paranoid_interval: int = 1000

    # Fault injection and resilience (repro.faults)
    #: Faults to inject this run (None = perfect fabric, the default;
    #: every fault-free code path is bit-identical to a build without
    #: the faults subsystem).
    fault_plan: Optional[FaultPlan] = None
    #: Sequence-numbered request/ack + timeout-retry protocol hardening.
    #: None = auto: hardened exactly when a fault plan is set.  True
    #: forces the hardened paths on a perfect fabric (for testing);
    #: False under faults demonstrates the watchdog catching the hang.
    harden_protocol: Optional[bool] = None
    #: First resend after ``retry_timeout`` cycles; each retry multiplies
    #: the wait by ``retry_backoff`` up to ``retry_timeout_cap``.
    retry_timeout: int = 2000
    retry_backoff: int = 2
    retry_timeout_cap: int = 32_000
    #: Progress watchdog.  None = auto (armed exactly when a fault plan
    #: is set); it raises WatchdogStall after ``watchdog_stall_checks``
    #: consecutive ``watchdog_interval``-cycle windows without a commit.
    watchdog: Optional[bool] = None
    watchdog_interval: int = 50_000
    watchdog_stall_checks: int = 4
    #: Consecutive aborts of one transaction before the watchdog reports
    #: a livelock episode (diagnostic only; TID retention is the cure).
    livelock_abort_threshold: int = 64

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
        for name in ("line_size", "word_size", "l1_size", "l1_ways",
                     "l2_size", "l2_ways", "page_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.line_size % self.word_size:
            raise ValueError("line size must be a multiple of word size")
        if self.retention_threshold < 1:
            raise ValueError("retention threshold must be >= 1")
        if self.sharer_group_size < 1:
            raise ValueError("sharer group size must be >= 1")
        for name in (
            "l1_latency", "l2_latency", "link_latency", "router_latency",
            "local_latency", "directory_latency", "memory_latency",
            "network_jitter",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.link_bytes_per_cycle is not None and self.link_bytes_per_cycle < 1:
            raise ValueError(
                "link_bytes_per_cycle must be None (infinite) or >= 1, "
                f"got {self.link_bytes_per_cycle}"
            )
        if not 0 <= self.tid_vendor_node < self.n_processors:
            raise ValueError(
                f"tid_vendor_node {self.tid_vendor_node} outside "
                f"[0, {self.n_processors})"
            )
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
        if self.retry_timeout < 1:
            raise ValueError(f"retry_timeout must be >= 1, got {self.retry_timeout}")
        if self.retry_backoff < 1:
            raise ValueError(f"retry_backoff must be >= 1, got {self.retry_backoff}")
        if self.retry_timeout_cap < self.retry_timeout:
            raise ValueError(
                f"retry_timeout_cap ({self.retry_timeout_cap}) must be >= "
                f"retry_timeout ({self.retry_timeout})"
            )
        if self.watchdog_interval < 1:
            raise ValueError(
                f"watchdog_interval must be >= 1, got {self.watchdog_interval}"
            )
        if self.watchdog_stall_checks < 1:
            raise ValueError(
                f"watchdog_stall_checks must be >= 1, "
                f"got {self.watchdog_stall_checks}"
            )
        if self.livelock_abort_threshold < 1:
            raise ValueError(
                f"livelock_abort_threshold must be >= 1, "
                f"got {self.livelock_abort_threshold}"
            )

    @property
    def protocol_hardened(self) -> bool:
        """Whether the seq/ack + retry protocol paths are active."""
        if self.harden_protocol is not None:
            return self.harden_protocol
        return self.fault_plan is not None

    @property
    def watchdog_active(self) -> bool:
        """Whether the progress watchdog is armed for this run."""
        if self.watchdog is not None:
            return self.watchdog
        return self.fault_plan is not None

    @property
    def words_per_line(self) -> int:
        return self.line_size // self.word_size

    def scaled_to(self, n_processors: int) -> "SystemConfig":
        """The same machine with a different processor count."""
        return replace(self, n_processors=n_processors)

    def with_link_latency(self, link_latency: int) -> "SystemConfig":
        """The same machine with a different cycles-per-hop (Figure 8)."""
        return replace(self, link_latency=link_latency)

    def describe(self) -> str:
        """Human-readable Table 2-style summary."""
        lines = [
            f"CPU          {self.n_processors} single-issue cores (CPI=1.0)",
            f"L1           {self.l1_size // 1024}-KB, {self.line_size}-byte lines, "
            f"{self.l1_ways}-way, {self.l1_latency}-cycle",
            f"L2           {self.l2_size // 1024}-KB, {self.line_size}-byte lines, "
            f"{self.l2_ways}-way, {self.l2_latency}-cycle",
            f"ICN          2D grid, {self.link_latency} cycles/link"
            + ("" if not self.ordered_network else " (ordered)"),
            f"Main memory  {self.memory_latency} cycles",
            f"Directory    full-bit-vector sharers, "
            f"{'first-touch' if self.first_touch else 'interleaved'} allocate, "
            f"{self.directory_latency}-cycle directory cache",
            f"Tracking     {self.granularity}-granularity speculative state",
            f"Commit       {self.commit_backend}"
            + (", write-through" if self.write_through_commit else ", write-back"),
        ]
        return "\n".join(lines)
