"""Tests for the protocol event log, the timeline renderer and the TAPE
profile derived from the log."""

from types import SimpleNamespace

import pytest

from repro import ScalableTCCSystem, SystemConfig, app_workload
from repro.memory.cache import CacheStats
from repro.processor.stats import ProcessorStats
from repro.tracing import EventLog, render_timeline, tape_report
from repro.workloads import CounterWorkload, PrivateWorkload, StarvationWorkload


class TestEventLogUnit:
    def test_log_and_select(self):
        log = EventLog()
        log.log(10, "tx_start", 0, tx=1)
        log.log(20, "tx_commit", 0, tx=1, tid=5)
        log.log(15, "tx_start", 1, tx=2)
        assert len(log) == 3
        assert [e.time for e in log.select(node=0)] == [10, 20]
        assert [e.fields["tx"] for e in log.select(category="tx_start")] == [1, 2]
        assert list(log.select(category="tx_commit", tid=5))

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            EventLog().log(0, "warp_core_breach", 0)

    def test_counts(self):
        log = EventLog()
        log.log(0, "tx_start", 0)
        log.log(1, "tx_start", 1)
        log.log(2, "tx_commit", 0)
        assert log.counts() == {"tx_start": 2, "tx_commit": 1}

    def test_render(self):
        log = EventLog()
        log.log(3, "violation", 2, line=7, tid=1)
        text = log.render()
        assert "violation" in text
        assert "line=7" in text


class TestSystemIntegration:
    def test_disabled_by_default(self):
        system = ScalableTCCSystem(SystemConfig(n_processors=2))
        assert system.events is None

    def test_events_recorded_when_enabled(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        result = system.run(
            CounterWorkload(n_counters=1, increments_per_proc=5),
            max_cycles=50_000_000,
        )
        log = system.events
        counts = log.counts()
        assert counts["tx_commit"] == result.committed_transactions
        assert counts["tx_start"] == (
            result.committed_transactions + result.total_violations
        )
        assert counts.get("tx_abort", 0) == result.total_violations
        assert counts["dir_commit"] >= 1
        assert counts["load_miss"] >= 1

    def test_violation_events_carry_cause(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        result = system.run(
            CounterWorkload(n_counters=1, increments_per_proc=6),
            max_cycles=50_000_000,
        )
        if result.total_violations:
            violations = list(system.events.select(category="violation"))
            assert violations
            assert all("line" in e.fields and "tid" in e.fields
                       for e in violations)

    def test_commit_events_in_tid_order_per_directory(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        system.run(CounterWorkload(increments_per_proc=5),
                   max_cycles=50_000_000)
        by_dir = {}
        for event in system.events.select(category="dir_commit"):
            by_dir.setdefault(event.node, []).append(event.fields["tid"])
        for tids in by_dir.values():
            assert tids == sorted(tids)  # NSTID order at each directory


class TestTimeline:
    def test_empty_log(self):
        assert render_timeline(EventLog(), 2) == "(no events)"

    def test_timeline_shape(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        result = system.run(PrivateWorkload(tx_per_proc=4),
                            max_cycles=50_000_000)
        text = render_timeline(system.events, 4, width=60,
                               end_time=result.cycles)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 lanes
        assert lines[1].startswith("P0")
        assert "C" in text  # commits visible
        # lanes all equal width
        assert len({len(line) for line in lines[1:]}) == 1

    def test_timeline_shows_violations(self):
        system = ScalableTCCSystem(
            SystemConfig(n_processors=4, event_log=True)
        )
        result = system.run(
            CounterWorkload(n_counters=1, increments_per_proc=8),
            max_cycles=50_000_000,
        )
        if result.total_violations:
            text = render_timeline(system.events, 4, width=80,
                                   end_time=result.cycles)
            assert "V" in text


# ----------------------------------------------------------------------
# TAPE profile
# ----------------------------------------------------------------------

#: ``repro run cluster_ga -n 32 --tape`` (scale 0.5).  These three texts
#: are the output of the earlier standalone TAPE profiler; the report
#: derived from the event log must match them byte for byte.
CLUSTER_GA_32 = """\
TAPE report
  violations          : 38
  wasted cycles       : 191,677
  retained (starving) : 0
  buffer overflows    : 0
  hottest conflict lines:
    line 0x800000: 30 violations, 152,865 wasted cycles
    line 0x800080: 5 violations, 24,425 wasted cycles
    line 0x800180: 2 violations, 12,257 wasted cycles
    line 0x800200: 1 violations, 2,130 wasted cycles
  most-violated transactions:
    cluster_ga: 38
  committer -> victim pairs:
    P6 -> P10: 1
    P6 -> P9: 1
    P23 -> P17: 1
    P23 -> P13: 1
    P3 -> P18: 1
    P25 -> P11: 1
    P25 -> P24: 1
    P27 -> P3: 1"""

COUNTER_8 = """\
TAPE report
  violations          : 168
  wasted cycles       : 85,265
  retained (starving) : 39
  buffer overflows    : 0
  hottest conflict lines:
    line 0x8000: 168 violations, 85,265 wasted cycles
  most-violated transactions:
    inc0: 168
  committer -> victim pairs:
    P2 -> P3: 8
    P2 -> P5: 8
    P2 -> P6: 8
    P2 -> P7: 8
    P3 -> P5: 8
    P3 -> P6: 8
    P3 -> P7: 8
    P5 -> P6: 8"""

STARVATION_8 = """\
TAPE report
  violations          : 192
  wasted cycles       : 100,557
  retained (starving) : 62
  buffer overflows    : 0
  hottest conflict lines:
    line 0x80003: 86 violations, 40,612 wasted cycles
    line 0x80002: 65 violations, 31,828 wasted cycles
    line 0x80001: 27 violations, 18,502 wasted cycles
    line 0x80000: 14 violations, 9,615 wasted cycles
  most-violated transactions:
    writer: 190
    long-reader: 2
  committer -> victim pairs:
    P1 -> P6: 9
    P4 -> P5: 9
    P2 -> P7: 8
    P7 -> P2: 8
    P7 -> P1: 7
    P7 -> P4: 7
    P5 -> P1: 7
    P1 -> P2: 6"""


def _traced_run(workload, max_cycles=None, **config):
    system = ScalableTCCSystem(SystemConfig(event_log=True, **config))
    result = system.run(workload, max_cycles=max_cycles)
    return system, result


def _stub_system(log, violations=0, wasted=0):
    """A one-processor system shell around a hand-built event log."""
    stats = ProcessorStats(violations=violations, violation_cycles=wasted)
    processor = SimpleNamespace(
        stats=stats, hierarchy=SimpleNamespace(stats=CacheStats()))
    return SimpleNamespace(events=log, processors=[processor])


class TestTapeReportUnit:
    def test_empty_log_report(self):
        text = tape_report(_stub_system(EventLog()))
        assert "violations          : 0" in text
        assert "hottest conflict lines" not in text

    def test_abort_attributed_to_its_cause(self):
        log = EventLog()
        log.log(90, "violation", 0, line=5, tid=3, committer=2)
        log.log(100, "tx_abort", 0, tx=1, label="hot", wasted=500)
        text = tape_report(_stub_system(log, violations=1, wasted=500))
        assert "wasted cycles       : 500" in text
        assert "line 0x5: 1 violations, 500 wasted cycles" in text
        assert "    hot: 1" in text
        assert "P2 -> P0: 1" in text

    def test_first_cause_wins(self):
        log = EventLog()
        log.log(1, "violation", 0, line=5, tid=3, committer=2)
        log.log(2, "violation", 0, line=9, tid=4, committer=1)
        log.log(3, "tx_abort", 0, tx=1, label="", wasted=10)
        text = tape_report(_stub_system(log, violations=1, wasted=10))
        assert "line 0x5: 1 violations" in text
        assert "line 0x9" not in text
        assert "P2 -> P0: 1" in text
        assert "P1 -> P0" not in text

    def test_causeless_abort_counted_but_not_listed(self):
        log = EventLog()
        log.log(1, "tx_abort", 0, tx=7, label="", wasted=10)
        text = tape_report(_stub_system(log, violations=1, wasted=10))
        assert "violations          : 1" in text
        assert "    tx7: 1" in text  # unlabelled transactions by id
        assert "hottest conflict lines" not in text
        assert "committer -> victim pairs" not in text

    def test_cause_is_per_node_and_consumed_by_the_abort(self):
        log = EventLog()
        log.log(1, "violation", 1, line=5, tid=3, committer=2)
        log.log(2, "tx_abort", 0, tx=1, label="a", wasted=1)
        log.log(3, "tx_abort", 1, tx=2, label="b", wasted=1)
        log.log(4, "tx_abort", 1, tx=2, label="b", wasted=1)
        text = tape_report(_stub_system(log, violations=3, wasted=3))
        assert "line 0x5: 1 violations, 1 wasted cycles" in text
        assert "P2 -> P1: 1" in text

    def test_requires_event_log(self):
        system = ScalableTCCSystem(SystemConfig(n_processors=2))
        system.run(PrivateWorkload(tx_per_proc=1), max_cycles=50_000_000)
        with pytest.raises(ValueError, match="event_log"):
            tape_report(system)


class TestTapeReportPinned:
    def test_cluster_ga_32(self):
        system, _ = _traced_run(app_workload("cluster_ga", scale=0.5),
                                n_processors=32)
        assert tape_report(system) == CLUSTER_GA_32

    def test_counter_8(self):
        system, _ = _traced_run(
            CounterWorkload(n_counters=1, increments_per_proc=8),
            max_cycles=50_000_000, n_processors=8)
        assert tape_report(system) == COUNTER_8

    def test_starvation_8(self):
        system, _ = _traced_run(
            StarvationWorkload(writer_txs=20), max_cycles=100_000_000,
            n_processors=8, retention_threshold=2)
        assert tape_report(system) == STARVATION_8


class TestTapeReportIntegration:
    def test_conflicting_run_populates_report(self):
        workload = CounterWorkload(n_counters=1, increments_per_proc=8)
        system, result = _traced_run(workload, max_cycles=50_000_000,
                                     n_processors=8)
        wasted = sum(s.violation_cycles for s in result.proc_stats)
        assert result.total_violations > 0
        aborts = list(system.events.select(category="tx_abort"))
        assert len(aborts) == result.total_violations
        assert sum(e.fields["wasted"] for e in aborts) == wasted
        text = tape_report(system)
        assert f"violations          : {result.total_violations}" in text
        assert f"wasted cycles       : {wasted:,}" in text
        # the single counter line is the hottest conflict object
        hot = text.split("hottest conflict lines:\n")[1].splitlines()[0]
        assert hot.startswith(f"    line {workload.counter_addr(0) // 32:#x}:")

    def test_conflict_free_run_has_empty_report(self):
        system, _ = _traced_run(PrivateWorkload(tx_per_proc=4),
                                max_cycles=50_000_000, n_processors=4)
        text = tape_report(system)
        assert "violations          : 0" in text
        assert "retained (starving) : 0" in text

    def test_starvation_detected_as_retentions(self):
        system, result = _traced_run(
            StarvationWorkload(writer_txs=20), max_cycles=100_000_000,
            n_processors=8, retention_threshold=2)
        retained = sum(s.tid_retentions for s in result.proc_stats)
        assert retained > 0
        assert f"retained (starving) : {retained}" in tape_report(system)

    def test_committer_victim_pairs_recorded(self):
        system, _ = _traced_run(
            CounterWorkload(n_counters=1, increments_per_proc=6),
            max_cycles=50_000_000, n_processors=4)
        violations = list(system.events.select(category="violation"))
        assert any(e.fields["committer"] >= 0 for e in violations)
        assert "committer -> victim pairs" in tape_report(system)
