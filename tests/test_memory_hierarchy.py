"""Unit tests for the private L1/L2 hierarchy."""

import pytest

from repro.memory import AddressMap, PrivateHierarchy
from repro.memory.hierarchy import (
    FLUSH_FIRST, HIT_L1, HIT_L2, L1_LATENCY, L1_SIZE, L1_WAYS, L2_LATENCY,
    L2_SIZE, L2_WAYS, MISS,
)

LINE = 32
#: Lines that share set 0 of the L1 filter, and of the L2.
L1_SET_STRIDE = L1_SIZE // LINE // L1_WAYS
L2_SET_STRIDE = L2_SIZE // LINE // L2_WAYS


@pytest.fixture
def amap():
    return AddressMap()


@pytest.fixture
def hier(amap):
    return PrivateHierarchy(amap)


def make_dirty(hier, line, value):
    """Give ``hier`` a dirty copy of ``line``: a committed speculative
    write of ``value`` to every word."""
    hier.fill(line, [0] * 8)
    for word in range(8):
        hier.store(line, word, value)
    hier.commit_speculative()


def test_cold_load_misses(hier):
    result = hier.load(0, 0)
    assert result.outcome == MISS
    assert not result.hit


def test_fill_then_load_costs_l2_then_l1(hier):
    hier.fill(0, [5] * 8)
    # fill installs the L1 tag, so the first load is an L1 hit
    first = hier.load(0, 0)
    assert first.outcome == HIT_L1
    assert first.cycles == L1_LATENCY == 1
    assert first.value == 5


def test_l1_capacity_miss_falls_to_l2(hier):
    # L1 filter: 32 KB, 4 ways, 256 sets.  Five lines of set 0 evict the
    # first from the filter; the 8-way L2 still holds it.
    lines = [i * L1_SET_STRIDE for i in range(L1_WAYS + 1)]
    for line in lines:
        hier.fill(line, [line] * 8)
    result = hier.load(0, 0)
    assert result.outcome == HIT_L2
    assert result.cycles == L2_LATENCY == 6
    assert result.value == 0


def test_store_miss_requires_allocate(hier):
    assert hier.store(0, 0, 1).outcome == MISS


def test_store_hit_sets_sm(hier):
    hier.fill(0, [0] * 8)
    result = hier.store(0, 2, 42)
    assert result.hit
    assert hier.peek(0).sm_mask == 1 << 2
    assert hier.peek(0).data[2] == 42


def test_first_speculative_write_to_dirty_line_needs_flush(hier):
    make_dirty(hier, 0, 9)
    result = hier.store(0, 0, 1)
    assert result.outcome == FLUSH_FIRST
    assert result.flush_line == 0
    assert result.flush_words == {w: 9 for w in range(8)}
    # After the flush is acknowledged the store can proceed.
    hier.flushed(0)
    assert hier.store(0, 0, 1).hit
    assert not hier.peek(0).dirty
    assert hier.peek(0).sm_mask == 1


def test_second_speculative_write_needs_no_flush(hier):
    make_dirty(hier, 0, 9)
    hier.flushed(0)
    hier.store(0, 0, 1)
    assert hier.store(0, 1, 2).hit  # sm already set; no flush loop


def test_fill_reports_dirty_evictions_only(hier):
    # L2: 512 KB, 8 ways, 2048 sets.  Line 0 is dirty and least recently
    # used when the ninth line of set 0 arrives.
    make_dirty(hier, 0, 1)
    lines = [i * L2_SET_STRIDE for i in range(1, L2_WAYS + 2)]
    for line in lines[:L2_WAYS - 1]:
        assert hier.fill(line, [2] * 8) == []
    notices = hier.fill(lines[L2_WAYS - 1], [2] * 8)  # evicts dirty line 0
    assert len(notices) == 1
    assert notices[0].line == 0
    assert notices[0].data == [1] * 8
    notices = hier.fill(lines[L2_WAYS], [3] * 8)  # evicts a clean line: no notice
    assert notices == []
    assert hier.peek(lines[0]) is None


def test_invalidate_returns_state_and_clears_both_levels(hier):
    hier.fill(0, [1] * 8)
    hier.load(0, 3)
    old = hier.invalidate(0)
    assert old.sr_mask == 1 << 3
    assert hier.load(0, 3).outcome == MISS


def test_extract_for_writeback(hier):
    make_dirty(hier, 0, 4)
    data = hier.extract_for_writeback(0)
    assert data == {w: 4 for w in range(8)}
    assert hier.peek(0) is None
    assert hier.extract_for_writeback(0) is None


def test_commit_and_abort_delegate(hier):
    hier.fill(0, [0] * 8)
    hier.store(0, 0, 1)
    assert hier.written_lines()[0].line == 0
    assert hier.commit_speculative() == [0]
    hier.store(0, 1, 2)  # dirty now, needs flush
    assert hier.store(0, 1, 2).outcome == FLUSH_FIRST
    hier.flushed(0)
    hier.store(0, 1, 2)
    assert hier.abort_speculative() == [0]


def test_read_write_set_bytes(hier):
    hier.fill(0, [0] * 8)
    hier.fill(1, [0] * 8)
    hier.load(0, 0)
    hier.load(0, 1)
    hier.store(1, 0, 5)
    assert hier.read_set_bytes() == 8
    assert hier.write_set_bytes() == 4
