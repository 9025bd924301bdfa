"""Tests for the TM data-structure workload pack."""

from repro import ScalableTCCSystem, SystemConfig
from repro.workloads.tm_patterns import (
    ListSetWorkload,
    QueueWorkload,
)


def run(workload, n=8, **kwargs):
    system = ScalableTCCSystem(SystemConfig(n_processors=n, **kwargs))
    result = system.run(workload, max_cycles=200_000_000)
    return system, result


class TestListSet:
    def test_runs_and_verifies(self):
        wl = ListSetWorkload(ops_per_proc=8)
        system, result = run(wl)
        assert result.committed_transactions == 8 * 8

    def test_inserts_conflict_with_long_lookups(self):
        """Writers touching early links violate readers' prefixes: the
        list pattern must produce real conflicts under contention."""
        wl = ListSetWorkload(list_length=16, ops_per_proc=12,
                             insert_ratio=0.6, compute_per_node=40)
        system, result = run(wl)
        assert result.total_violations > 0

    def test_lookup_only_list_never_conflicts(self):
        wl = ListSetWorkload(ops_per_proc=10, insert_ratio=0.0)
        system, result = run(wl)
        assert result.total_violations == 0

    def test_validates(self):
        ListSetWorkload().validate(4)


class TestQueue:
    def test_runs_and_verifies(self):
        wl = QueueWorkload(ops_per_proc=8)
        system, result = run(wl)
        assert result.committed_transactions == 8 * 8

    def test_tail_counts_enqueues_exactly(self):
        wl = QueueWorkload(ops_per_proc=10)
        system, result = run(wl, n=8)
        tail_line = wl.tail_addr // 32
        head_line = wl.head_addr // 32
        enqueuers = 4  # even processors of 8
        dequeuers = 4
        assert result.memory_image[tail_line][0] == enqueuers * 10
        assert result.memory_image[head_line][0] == dequeuers * 10

    def test_head_tail_independent_at_word_granularity(self):
        """Head and tail live on different lines: enqueuers and
        dequeuers only conflict within their own end."""
        wl = QueueWorkload(ops_per_proc=6, compute=5)
        system, result = run(wl, n=2)  # one enqueuer, one dequeuer
        assert result.total_violations == 0

    def test_validates(self):
        QueueWorkload().validate(4)
