"""What one run produced: the full result and the summary derived from it.

:class:`SimulationResult` is everything a run leaves behind: the
per-processor and per-directory stats with their sample lists, the
commit log and the drained memory image.

:class:`ResultSummary` holds every number the paper's artefacts read
from a run, each derived here and nowhere else: cycles and totals, the
Fig. 6/7 breakdown, the commit phases of Section 4.2, the Table 3 row
and the Fig. 9 traffic.  It carries no sample lists, so it is cheap to
ship across a worker-process queue and small enough to archive as a
cache entry (:mod:`repro.runner`).  ``result.summary()`` in-process and
a worker's summary of the same job are the same numbers.

Every summary field is deterministic for a given job spec, so
:meth:`ResultSummary.fingerprint` — a SHA-256 over the canonical JSON
form — doubles as the bit-exactness witness for serial-vs-parallel and
cold-vs-cached equivalence tests.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.faults.injector import FaultStats
from repro.network.interconnect import TrafficStats
from repro.processor.stats import ProcessorStats
from repro.verify.serializability import CommitRecord

#: The five execution-time components of Figures 6 and 7, in figure order.
BREAKDOWN_KEYS = ("useful", "miss", "idle", "commit", "violation")


@dataclass
class SimulationResult:
    """Everything a benchmark or analysis needs from one run."""

    config: SystemConfig
    cycles: int
    proc_stats: List[ProcessorStats]
    directory_stats: List[Any]
    traffic: TrafficStats
    commit_log: List[CommitRecord]
    memory_image: Dict[int, List[int]]
    directory_working_sets: List[int]
    events_executed: int = 0
    #: Injector/hardening counters (None for plain fault-free runs).
    fault_stats: Optional[FaultStats] = None

    @property
    def committed_transactions(self) -> int:
        return sum(s.committed_transactions for s in self.proc_stats)

    @property
    def total_violations(self) -> int:
        return sum(s.violations for s in self.proc_stats)

    @property
    def committed_instructions(self) -> int:
        return sum(s.committed_instructions for s in self.proc_stats)

    def breakdown(self) -> Dict[str, int]:
        """Machine-wide cycle breakdown (summed over processors), with the
        residual of each processor's timeline counted as idle."""
        total = dict.fromkeys(BREAKDOWN_KEYS, 0)
        for stats in self.proc_stats:
            for key, value in stats.breakdown().items():
                total[key] += value
            # Cycles between a processor finishing and the run ending are
            # idle time (tail imbalance).
            total["idle"] += max(0, self.cycles - stats.total_cycles)
        return total

    def summary(self) -> "ResultSummary":
        """The derived numbers of this run (what a runner job returns)."""
        return ResultSummary.from_result(self)


def _percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0..100) by linear interpolation.

    Table 3 reports 90th percentiles; an empty sample list yields 0.
    """
    if not samples:
        return 0.0
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (pct / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


@dataclass
class ResultSummary:
    """Deterministic scalar summary of one simulation run."""

    n_processors: int
    cycles: int
    committed_transactions: int
    total_violations: int
    committed_instructions: int
    events_executed: int
    breakdown: Dict[str, int] = field(default_factory=dict)
    #: Successful-commit wait by phase, summed over processors: ``tid``
    #: (TID acquisition), ``probe`` (probe + mark until validated) and
    #: ``ack`` (commit messages until every ack).
    commit_phases: Dict[str, int] = field(default_factory=dict)
    traffic_bytes_by_class: Dict[str, int] = field(default_factory=dict)
    traffic_bytes: int = 0
    traffic_packets: int = 0
    #: max over nodes of bytes delivered into that node (Fig. 9's
    #: per-node bandwidth argument).
    traffic_peak_node_bytes: int = 0

    # Table 3: per-commit samples at the 90th percentile.
    tx_size_p90: float = 0.0               # instructions
    write_set_p90_kb: float = 0.0
    read_set_p90_kb: float = 0.0
    ops_per_word_written: float = 0.0      # committed instructions per word
    dirs_per_commit_p90: float = 0.0
    working_set_p90_entries: float = 0.0   # over directories
    occupancy_p90_cycles: float = 0.0      # directory occupancy per commit

    fault_stats: Optional[Dict[str, int]] = None

    @classmethod
    def from_result(cls, result: SimulationResult) -> "ResultSummary":
        tx_sizes: List[int] = []
        write_sets: List[int] = []
        read_sets: List[int] = []
        dirs: List[int] = []
        words_written = 0
        phases = {"tid": 0, "probe": 0, "ack": 0}
        word_size = result.config.word_size
        for stats in result.proc_stats:
            tx_sizes.extend(stats.tx_instructions)
            write_sets.extend(stats.write_set_bytes)
            read_sets.extend(stats.read_set_bytes)
            dirs.extend(stats.dirs_touched)
            words_written += sum(stats.write_set_bytes) // word_size
            for phase, cycles in stats.commit_phase_breakdown().items():
                phases[phase] += cycles
        occupancy: List[int] = []
        for dstats in result.directory_stats:
            occupancy.extend(dstats.occupancy_samples)
        instructions = result.committed_instructions
        traffic = result.traffic
        return cls(
            n_processors=result.config.n_processors,
            cycles=result.cycles,
            committed_transactions=result.committed_transactions,
            total_violations=result.total_violations,
            committed_instructions=instructions,
            events_executed=result.events_executed,
            breakdown=result.breakdown(),
            commit_phases=phases,
            traffic_bytes_by_class=dict(traffic.bytes_by_class),
            traffic_bytes=traffic.total_bytes,
            traffic_packets=traffic.packets,
            traffic_peak_node_bytes=max(
                traffic.bytes_into_node.values(), default=0
            ),
            tx_size_p90=_percentile(tx_sizes, 90),
            write_set_p90_kb=_percentile(write_sets, 90) / 1024,
            read_set_p90_kb=_percentile(read_sets, 90) / 1024,
            ops_per_word_written=(
                instructions / words_written if words_written else 0.0
            ),
            dirs_per_commit_p90=_percentile(dirs, 90),
            working_set_p90_entries=_percentile(
                result.directory_working_sets, 90),
            occupancy_p90_cycles=_percentile(occupancy, 90),
            fault_stats=(
                result.fault_stats.as_dict() if result.fault_stats else None
            ),
        )

    # -- what the paper's artefacts read -----------------------------------

    def breakdown_fractions(self) -> Dict[str, float]:
        """Figures 6/7: each component's share of processor-cycles."""
        total_cycles = self.cycles * self.n_processors
        if not total_cycles:
            return dict.fromkeys(BREAKDOWN_KEYS, 0.0)
        return {
            key: self.breakdown.get(key, 0) / total_cycles
            for key in BREAKDOWN_KEYS
        }

    def bytes_per_instruction(self) -> Dict[str, float]:
        """Figure 9: remote traffic per committed instruction, by class."""
        instructions = max(1, self.committed_instructions)
        return {
            cls_: count / instructions
            for cls_, count in self.traffic_bytes_by_class.items()
        }

    def speedup_over(self, baseline: "ResultSummary") -> float:
        """Figure 7: ``baseline.cycles / self.cycles``.  Both runs must do
        the same total work (fixed-size scaling)."""
        if self.cycles == 0:
            return float("inf")
        return baseline.cycles / self.cycles

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResultSummary":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form: two runs are bit-identical
        exactly when their fingerprints match."""
        # Imported here: ``import repro`` loads this module, and neither
        # is needed on that path.
        import hashlib
        import json

        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()
