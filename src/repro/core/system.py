"""System assembly: nodes, routing, the run loop, and verification.

A :class:`ScalableTCCSystem` instantiates the Figure 1a machine: per node
one processor (with private L1/L2), one directory with its slice of
physical memory, all joined by the 2-D mesh.  Node 0 additionally hosts
the global TID vendor.  ``run(workload)`` drives the workload to
completion, drains all committed-dirty data home, checks protocol
quiescence and the gap-free TID contract, and (by default) has the
independent oracle judge serializability
(:mod:`repro.verify.serializability`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.core.config import SystemConfig
from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    InvAck,
    LoadRequest,
    MarkMsg,
    ProbeRequest,
    SkipMsg,
    TidReply,
    TidRequest,
    TokenWrite,
    WriteBackMsg,
)
from repro.core.tid import TidVendor
from repro.directory.controller import DirectoryController
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.watchdog import ProgressWatchdog
from repro.memory.address import AddressMap, FirstTouchMapping, InterleavedMapping
from repro.memory.mainmem import MainMemory
from repro.memory.hierarchy import PrivateHierarchy
from repro.network.interconnect import Interconnect, TrafficStats
from repro.processor.core import TCCProcessor
from repro.processor.stats import ProcessorStats
from repro.profiling.tape import TapeProfiler
from repro.sim import Barrier, Engine, Resource
from repro.verify.serializability import CommitRecord, SerializabilityChecker
from repro.workloads.base import ScheduleItem, Workload

#: Message types the node router hands to the directory (by exact type).
_DIRECTORY_MESSAGES = frozenset({
    LoadRequest,
    SkipMsg,
    ProbeRequest,
    MarkMsg,
    CommitMsg,
    AbortMsg,
    InvAck,
    WriteBackMsg,
    TokenWrite,
})


def _recorded(items: Iterable[ScheduleItem],
              into: List[ScheduleItem]) -> Iterator[ScheduleItem]:
    """Yield ``items``, appending each to ``into`` as it is pulled."""
    for item in items:
        into.append(item)
        yield item


class SimulationTimeout(RuntimeError):
    """The run hit its cycle bound before every processor finished."""


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
        total = {"useful": 0, "miss": 0, "idle": 0, "commit": 0, "violation": 0}
        for stats in self.proc_stats:
            for key, value in stats.breakdown().items():
                total[key] += value
            # Cycles between a processor finishing and the run ending are
            # idle time (tail imbalance).
            total["idle"] += max(0, self.cycles - stats.total_cycles)
        return total

    def breakdown_fractions(self) -> Dict[str, float]:
        total_cycles = self.cycles * len(self.proc_stats)
        if not total_cycles:
            return {k: 0.0 for k in ("useful", "miss", "idle", "commit", "violation")}
        return {k: v / total_cycles for k, v in self.breakdown().items()}

    def bytes_per_instruction(self) -> Dict[str, float]:
        """Figure 9: remote traffic per committed instruction, by class."""
        instructions = max(1, self.committed_instructions)
        return {
            cls: count / instructions
            for cls, count in self.traffic.bytes_by_class.items()
        }

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable summary (config, outcome, breakdowns,
        traffic, per-processor counters) for archiving experiment runs."""
        from dataclasses import asdict

        return {
            "config": asdict(self.config),
            "cycles": self.cycles,
            "committed_transactions": self.committed_transactions,
            "violations": self.total_violations,
            "committed_instructions": self.committed_instructions,
            "events_executed": self.events_executed,
            "fault_stats": (
                self.fault_stats.as_dict() if self.fault_stats else None
            ),
            "breakdown": self.breakdown(),
            "breakdown_fractions": self.breakdown_fractions(),
            "bytes_per_instruction": self.bytes_per_instruction(),
            "traffic_bytes_by_class": dict(self.traffic.bytes_by_class),
            "directory_working_sets": list(self.directory_working_sets),
            "per_processor": [
                {
                    "node": node,
                    **stats.breakdown(),
                    "committed_transactions": stats.committed_transactions,
                    "violations": stats.violations,
                    "load_retries": stats.load_retries,
                    "tid_retentions": stats.tid_retentions,
                }
                for node, stats in enumerate(self.proc_stats)
            ],
        }

    def save_json(self, path: str) -> None:
        """Write :meth:`to_dict` as JSON."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)


class ScalableTCCSystem:
    """The full simulated machine."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.engine = Engine()
        self.amap = AddressMap(config.line_size, config.word_size)
        self.network = Interconnect(
            self.engine,
            config.n_processors,
            link_latency=config.link_latency,
            router_latency=config.router_latency,
            local_latency=config.local_latency,
            link_bytes_per_cycle=config.link_bytes_per_cycle,
            ordered=config.ordered_network,
            jitter=config.network_jitter,
            seed=config.seed,
        )
        if config.first_touch:
            self.mapping = FirstTouchMapping(
                config.n_processors, config.page_size, config.line_size
            )
        else:
            self.mapping = InterleavedMapping(config.n_processors)
        self.vendor = TidVendor(config.tid_vendor_node)
        self.tape = TapeProfiler()
        if config.event_log:
            from repro.tracing import EventLog

            self.events: Optional[Any] = EventLog()
        else:
            self.events = None
        self.commit_log: List[CommitRecord] = []
        self.barrier: Optional[Barrier] = None
        self.token = Resource(self.engine, name="commit-token")

        # Fault injection and protocol hardening (repro.faults).  All of
        # this is None/inert for plain fault-free configs, whose event
        # streams must stay bit-identical.
        self.fault_stats: Optional[FaultStats] = None
        self.fault_injector: Optional[FaultInjector] = None
        if config.fault_plan is not None or config.protocol_hardened:
            self.fault_stats = FaultStats()
        if config.fault_plan is not None:
            self.fault_injector = FaultInjector(
                config.fault_plan,
                config.n_processors,
                stats=self.fault_stats,
                event_log=self.events,
            )
            self.network.fault_injector = self.fault_injector

        self.memories: List[MainMemory] = []
        self.directories: List[DirectoryController] = []
        self.processors: List[TCCProcessor] = []
        for node in range(config.n_processors):
            memory = MainMemory(self.amap)
            directory = DirectoryController(
                node, self.engine, self.network, memory, self.amap, config
            )
            hierarchy = PrivateHierarchy(
                self.amap,
                l1_size=config.l1_size,
                l1_ways=config.l1_ways,
                l1_latency=config.l1_latency,
                l2_size=config.l2_size,
                l2_ways=config.l2_ways,
                l2_latency=config.l2_latency,
                granularity=config.granularity,
                name=f"cpu{node}",
            )
            processor = TCCProcessor(
                node,
                self.engine,
                self.network,
                hierarchy,
                self.mapping,
                self.amap,
                config,
                self,
            )
            directory.event_log = self.events
            directory.fault_injector = self.fault_injector
            directory.fault_stats = self.fault_stats
            processor.fault_injector = self.fault_injector
            processor.fault_stats = self.fault_stats
            self.memories.append(memory)
            self.directories.append(directory)
            self.processors.append(processor)
            self.network.register(node, self._make_router(node))
        self._ran = False

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _make_router(self, node: int):
        directory = self.directories[node]
        processor = self.processors[node]
        is_vendor_node = node == self.config.tid_vendor_node

        def route(packet):
            msg = packet.payload
            kind = type(msg)
            if kind in _DIRECTORY_MESSAGES:
                directory.deliver(msg)
            elif kind is TidRequest:
                if not is_vendor_node:
                    raise RuntimeError(f"TID request routed to non-vendor node {node}")
                tid = self.vendor.next_tid(msg.requester, msg.seq)
                reply = TidReply(tid, msg.seq)
                self.network.send(
                    node, msg.requester, reply, reply.payload_bytes, reply.traffic_class
                )
            else:
                processor.deliver(msg)

        return route

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        max_cycles: Optional[int] = None,
        verify: bool = True,
    ) -> SimulationResult:
        """Execute the workload to completion and return the results."""
        if self._ran:
            raise RuntimeError("a system instance runs exactly one workload")
        self._ran = True
        n = self.config.n_processors
        self.barrier = Barrier(self.engine, n, name="workload-barrier")
        # The program the oracle judges, recorded as the processors pull it.
        schedules: List[List[ScheduleItem]] = [[] for _ in range(n)]
        for node, processor in enumerate(self.processors):
            processor.process_for(
                _recorded(workload.schedule(node, n), schedules[node]))
        if self.config.watchdog_active:
            ProgressWatchdog(self, self.fault_stats).start()
        if self.config.paranoid:
            from repro.verify.invariants import check_system_invariants

            while self.engine.peek() is not None:
                target = self.engine.now + self.config.paranoid_interval
                if max_cycles is not None:
                    target = min(target, max_cycles)
                self.engine.run(until=target)
                check_system_invariants(self, strict_sharers=False)
                if max_cycles is not None and self.engine.now >= max_cycles:
                    break
        else:
            self.engine.run(until=max_cycles)

        unfinished = [p.node for p in self.processors if not p.finished]
        if unfinished:
            raise SimulationTimeout(
                f"processors {unfinished} unfinished at cycle {self.engine.now} "
                f"(queue {'empty: deadlock' if self.engine.peek() is None else 'active: timeout'})"
            )
        # Not ``engine.now``: an armed watchdog keeps ticking, and hardened
        # retry timers expire idle, after the last processor finished.
        run_cycles = max(p.finished_at for p in self.processors)

        self.vendor.check_all_resolved()
        from repro.verify.invariants import check_system_invariants

        check_system_invariants(self, strict_sharers=True)
        self.tape.overflow_events = sum(
            p.hierarchy.stats.speculative_overflows for p in self.processors
        )
        self._drain()
        for directory in self.directories:
            directory.quiescent_check()

        result = SimulationResult(
            config=self.config,
            cycles=run_cycles,
            proc_stats=[p.stats for p in self.processors],
            directory_stats=[d.stats for d in self.directories],
            traffic=self.network.stats,
            commit_log=self.commit_log,
            memory_image=self.memory_image(),
            directory_working_sets=[
                d.state.working_set_entries(d.node) for d in self.directories
            ],
            events_executed=self.engine.events_executed,
            fault_stats=self.fault_stats,
        )
        if verify:
            checker = SerializabilityChecker(self.config.line_size,
                                             self.config.word_size)
            checker.check(schedules, self.commit_log, result.memory_image)
        return result

    def _drain(self) -> None:
        """Push all committed-dirty cache data home so memory is complete."""
        for processor in self.processors:
            processor.drain_dirty_lines()
        self.engine.run()
        for directory in self.directories:
            for entry in directory.state.entries():
                if entry.owned:
                    raise RuntimeError(
                        f"line {entry.line} still owned by {entry.owner} after drain"
                    )

    def memory_image(self) -> Dict[int, List[int]]:
        """The union of all node memories (homes partition the lines)."""
        image: Dict[int, List[int]] = {}
        for memory in self.memories:
            snapshot = memory.snapshot()
            for line, words in snapshot.items():
                if line in image:
                    raise RuntimeError(f"line {line} present in two home memories")
                image[line] = words
        return image
