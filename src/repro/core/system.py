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

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.baseline.token import CommitToken
from repro.core.config import SystemConfig
from repro.core.result import SimulationResult
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
from repro.core.tid import VENDOR_NODE, TidVendor
from repro.directory.controller import DirectoryController
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.watchdog import ProgressWatchdog
from repro.memory.address import AddressMap, FirstTouchMapping
from repro.memory.mainmem import MainMemory
from repro.memory.hierarchy import PrivateHierarchy
from repro.network.interconnect import Interconnect
from repro.processor.core import TCCProcessor
from repro.sim import PARK, Engine, Process
from repro.verify.serializability import CommitRecord, SerializabilityChecker
from repro.workloads.base import ScheduleItem, Workload

#: Cycles between machine-wide invariant checks under ``paranoid``.
PARANOID_INTERVAL = 1000

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
            ordered=config.ordered_network,
            jitter=config.network_jitter,
            seed=config.seed,
        )
        self.mapping = FirstTouchMapping(
            config.n_processors, line_size=config.line_size
        )
        self.vendor = TidVendor()
        if config.event_log:
            from repro.tracing import EventLog

            self.events: Optional[Any] = EventLog()
        else:
            self.events = None
        self.commit_log: List[CommitRecord] = []
        # Processes parked at the workload barrier, in arrival order.
        self._barrier_waiters: List[Process] = []
        self.token = CommitToken()

        # Fault injection and protocol hardening (repro.faults).  All of
        # this is None/inert for plain fault-free configs, whose event
        # streams must stay bit-identical.
        self.fault_stats: Optional[FaultStats] = None
        self.fault_injector: Optional[FaultInjector] = None
        if config.fault_plan is not None:
            self.fault_stats = FaultStats()
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
                self.amap, granularity=config.granularity, name=f"cpu{node}"
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
        is_vendor_node = node == VENDOR_NODE

        def route(msg):
            kind = type(msg)
            if kind in _DIRECTORY_MESSAGES:
                directory.deliver(msg)
            elif kind is TidRequest:
                if not is_vendor_node:
                    raise RuntimeError(f"TID request routed to non-vendor node {node}")
                tid = self.vendor.next_tid(msg.requester, msg.seq)
                self.network.send(node, msg.requester, TidReply(tid, msg.seq))
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
        # The program the oracle judges, recorded as the processors pull it.
        schedules: List[List[ScheduleItem]] = [[] for _ in range(n)]
        for node, processor in enumerate(self.processors):
            processor.process_for(
                _recorded(workload.schedule(node, n), schedules[node]))
        if self.config.protocol_hardened:
            ProgressWatchdog(self, self.fault_stats).start()
        if self.config.paranoid:
            from repro.verify.invariants import check_system_invariants

            while self.engine.peek() is not None:
                target = self.engine.now + PARANOID_INTERVAL
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

    def arrive_at_barrier(self, process: Process):
        """What ``process`` yields on reaching the workload barrier.

        Every processor but the last parks (``PARK``).  The last to
        arrive resumes the earlier ones in arrival order, then continues
        itself with ``yield 0``, after them."""
        waiters = self._barrier_waiters
        if len(waiters) + 1 < self.config.n_processors:
            waiters.append(process)
            return PARK
        self._barrier_waiters = []
        for waiter in waiters:
            waiter.resume()
        return 0

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
