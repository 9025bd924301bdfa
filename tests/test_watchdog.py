"""Tests for the engine-level progress watchdog."""

from types import SimpleNamespace

import pytest

from repro import ScalableTCCSystem, SystemConfig, Transaction, WatchdogStall
from repro.faults import FaultPlan, NodeFault, PacketFault, FaultStats
from repro.faults.watchdog import (
    LIVELOCK_ABORT_THRESHOLD,
    ProgressWatchdog,
    format_stall_report,
)
from repro.workloads.base import Workload


class HotCounter(Workload):
    def __init__(self, per_proc=4):
        self.per_proc = per_proc

    def schedule(self, proc, n_procs):
        return iter(
            Transaction(proc * 100 + i, [("c", 3), ("add", 0, 1)])
            for i in range(self.per_proc)
        )


def test_unhardened_drops_become_a_diagnosed_stall():
    # Drop every commit-class packet: retries cannot get through either,
    # so the protocol wedges, and the watchdog must turn that hang into
    # a structured WatchdogStall instead of spinning.
    config = SystemConfig(
        n_processors=4,
        fault_plan=FaultPlan(
            packet_faults=(PacketFault("drop", 1.0, traffic_classes=("commit",)),),
            seed=1,
        ),
        watchdog_interval=2_000,
    )
    system = ScalableTCCSystem(config)
    with pytest.raises(WatchdogStall) as excinfo:
        system.run(HotCounter(), verify=False)
    report = excinfo.value.report
    assert report["cycle"] >= 6_000
    assert len(report["processors"]) == 4
    assert any(not p["finished"] for p in report["processors"])
    # The engine stopped at the raise: each directory's entry is its
    # in-flight state as of the stall.
    assert report["directories"] == [
        {"node": d.node, "nstid": d.nstid, **d.in_flight()}
        for d in system.directories
    ]
    text = format_stall_report(report)
    assert "no commit progress" in text
    assert "cpu" in text


def test_hardened_run_survives_the_same_drops():
    config = SystemConfig(
        n_processors=4,
        fault_plan=FaultPlan(
            packet_faults=(PacketFault("drop", 0.3, traffic_classes=("commit",)),),
            seed=1,
        ),
        watchdog_interval=25_000,
    )
    system = ScalableTCCSystem(config)
    result = system.run(HotCounter(), verify=True)
    assert result.committed_transactions == 16
    assert result.memory_image[0][0] == 16
    assert result.fault_stats is not None
    assert result.fault_stats.drops > 0
    assert result.fault_stats.retries > 0


def test_cpu_pause_window_is_exercised_and_survived():
    config = SystemConfig(
        n_processors=4,
        fault_plan=FaultPlan(
            node_faults=(NodeFault("cpu_pause", 2, start_cycle=0,
                                   duration=20_000),),
            seed=3,
        ),
    )
    system = ScalableTCCSystem(config)
    result = system.run(HotCounter(), verify=True)
    assert result.committed_transactions == 16
    assert result.fault_stats.cpu_pause_cycles > 0


def test_dir_stall_window_is_exercised_and_survived():
    config = SystemConfig(
        n_processors=4,
        fault_plan=FaultPlan(
            node_faults=(NodeFault("dir_stall", 1, start_cycle=0,
                                   duration=20_000),),
            seed=3,
        ),
    )
    system = ScalableTCCSystem(config)
    result = system.run(HotCounter(), verify=True)
    assert result.committed_transactions == 16
    assert result.fault_stats.dir_stall_cycles > 0


def test_watchdog_off_by_default_for_fault_free_runs():
    assert not SystemConfig(n_processors=4).protocol_hardened
    assert SystemConfig(n_processors=4, fault_plan=FaultPlan()).protocol_hardened


def _fake_system(violations):
    config = SystemConfig(n_processors=4)
    proc = SimpleNamespace(
        node=0, finished=False, _consecutive_violations=violations,
        current_tid=7, retained=True,
        stats=SimpleNamespace(committed_transactions=0),
    )
    return SimpleNamespace(config=config, processors=[proc], engine=None,
                           events=None), proc


def test_livelock_reported_once_per_episode():
    system, proc = _fake_system(violations=LIVELOCK_ABORT_THRESHOLD + 1)
    stats = FaultStats()
    watchdog = ProgressWatchdog(system, stats)
    watchdog._check_livelock()
    watchdog._check_livelock()
    assert stats.livelock_episodes == 1  # still the same episode
    proc._consecutive_violations = 0  # the retained TID finally won
    watchdog._check_livelock()
    proc._consecutive_violations = LIVELOCK_ABORT_THRESHOLD - 1
    watchdog._check_livelock()
    assert stats.livelock_episodes == 1  # below the threshold
    proc._consecutive_violations = LIVELOCK_ABORT_THRESHOLD  # ...and again
    watchdog._check_livelock()
    assert stats.livelock_episodes == 2


def test_armed_watchdog_does_not_pad_reported_cycles():
    # The watchdog keeps ticking until its first tick after the last
    # processor finished; the reported run length must still be the
    # finish cycle.  An empty fault plan arms it without injecting.
    config = SystemConfig(n_processors=4, fault_plan=FaultPlan(),
                          watchdog_interval=1_000)
    watched = ScalableTCCSystem(config).run(HotCounter(), verify=True)
    finish = max(s.total_cycles for s in watched.proc_stats)
    assert finish % 1_000  # a tick past the finish would show
    assert watched.cycles == finish
