"""Fault injection and resilience for the Scalable TCC simulator.

``repro.faults`` holds the machinery that lets the simulator prove the
paper's non-blocking claims on an *unreliable* fabric instead of a
perfect one: declarative fault plans (:mod:`repro.faults.plan`), the
deterministic injector the interconnect consults
(:mod:`repro.faults.injector`), the retry/ack helpers the hardened
protocol uses (:mod:`repro.faults.retry`), and the progress watchdog
that turns hangs into structured diagnostics
(:mod:`repro.faults.watchdog`).  :func:`random_fault_plan` draws the
seeded plans that ``repro conform --faults`` campaigns sweep.
"""

from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import (
    NODE_FAULT_KINDS,
    PACKET_FAULT_KINDS,
    FaultPlan,
    NodeFault,
    PacketFault,
    random_fault_plan,
)
from repro.faults.retry import AckTracker, Retrier
from repro.faults.watchdog import ProgressWatchdog, WatchdogStall, format_stall_report

__all__ = [
    "AckTracker",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "NODE_FAULT_KINDS",
    "NodeFault",
    "PACKET_FAULT_KINDS",
    "PacketFault",
    "ProgressWatchdog",
    "Retrier",
    "WatchdogStall",
    "format_stall_report",
    "random_fault_plan",
]
