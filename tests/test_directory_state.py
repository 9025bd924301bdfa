"""Unit tests for per-line directory state."""

from repro.directory import DirectoryEntry, DirectoryState


def test_fresh_entry_is_unowned_unmarked():
    entry = DirectoryEntry(7)
    assert not entry.owned
    assert not entry.marked
    assert entry.sharers == set()
    assert entry.tid_tag == 0


def test_mark_accumulates_words():
    entry = DirectoryEntry(7)
    entry.mark(5, 0b0001)
    entry.mark(5, 0b0100)
    assert entry.marked
    assert entry.marked_words == 0b0101
    assert entry.marked_by == 5


def test_clear_mark():
    entry = DirectoryEntry(7)
    entry.mark(5, 0xFF)
    entry.clear_mark()
    assert not entry.marked
    assert entry.marked_words == 0
    assert entry.marked_by is None


def test_commit_to_transfers_ownership_keeping_sharers():
    entry = DirectoryEntry(7)
    entry.sharers = {0, 2}
    entry.mark(5, 0xFF)
    entry.commit_to(committer=1, tid=5)
    assert entry.owner == 1
    assert entry.owned
    assert entry.tid_tag == 5
    # Word granularity: invalidated processors may retain other words, so
    # they stay sharers; the committer joins.
    assert entry.sharers == {0, 1, 2}
    assert not entry.marked


def test_commit_to_line_granularity_resets_sharers():
    entry = DirectoryEntry(7)
    entry.sharers = {0, 2}
    entry.mark(5, 0xFF)
    entry.commit_to(committer=1, tid=5, keep_sharers=False)
    assert entry.sharers == {1}


def test_release_ownership_keeps_tag():
    entry = DirectoryEntry(7)
    entry.commit_to(2, 9)
    entry.release_ownership()
    assert not entry.owned
    assert entry.tid_tag == 9


def test_state_creates_entries_on_demand():
    state = DirectoryState()
    assert state.peek(3) is None
    entry = state.entry(3)
    assert state.peek(3) is entry
    assert len(state) == 1


def test_marked_lines_filters_by_tid():
    state = DirectoryState()
    state.mark_line(1, 5, 1)
    state.mark_line(2, 5, 1)
    state.mark_line(3, 6, 1)
    assert [e.line for e in state.marked_for(5)] == [1, 2]
    assert [e.line for e in state.marked_for(6)] == [3]


def test_working_set_counts_remote_entries_only():
    state = DirectoryState()
    home = 2
    state.entry(1).sharers = {2}          # local only: not counted
    state.entry(2).sharers = {2, 5}       # remote sharer: counted
    state.entry(3).owner = 7              # remote owner: counted
    state.entry(3).sharers = {7}
    state.entry(4).owner = 2              # local owner: not counted
    state.entry(4).sharers = {2}
    assert state.working_set_entries(home) == 2
