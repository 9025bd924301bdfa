"""Per-line directory state (Figure 4 of the paper).

For every line of its memory slice a directory tracks:

* ``sharers`` — full bit vector of processors that may cache the line
  (having speculatively read it); the owner is also a member.  A
  processor is removed only when an invalidation is sent to it — there
  are no replacement hints, so the list is conservative.
* ``owner`` / ``owned`` — the last committer, holding the only up-to-date
  copy until it writes the line back (write-back protocol).
* ``marked`` / ``marked_words`` / ``marked_by`` — the line is part of an
  in-flight commit to this directory.
* ``tid_tag`` — TID of the last commit to the line; stale write-backs
  (smaller tag) are dropped, eliminating unordered-network races
  (Section 3.3, "Race Elimination").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set


@dataclass
class DirectoryEntry:
    """Directory state for one cache line."""

    line: int
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    marked: bool = False
    marked_words: int = 0
    marked_by: Optional[int] = None
    tid_tag: int = 0
    #: Creation rank within the owning :class:`DirectoryState`; entries are
    #: never deleted, so this reproduces the entry-table scan order.
    seq: int = 0

    @property
    def owned(self) -> bool:
        return self.owner is not None

    def mark(self, tid: int, word_mask: int) -> None:
        self.marked = True
        self.marked_words |= word_mask
        self.marked_by = tid

    def clear_mark(self) -> None:
        self.marked = False
        self.marked_words = 0
        self.marked_by = None

    def commit_to(self, committer: int, tid: int, keep_sharers: bool = True) -> None:
        """Gang-upgrade: Marked -> Owned by the committer.

        At word granularity (``keep_sharers=True``) invalidated processors
        may retain the line's *other* valid words, so they must stay in
        the sharers list to hear about future commits; at line granularity
        an invalidation drops the whole line, so the list resets to just
        the committer (the paper's policy).
        """
        self.owner = committer
        self.tid_tag = tid
        if keep_sharers:
            self.sharers.add(committer)
        else:
            self.sharers = {committer}
        self.clear_mark()

    def release_ownership(self) -> None:
        """Data reached home memory; memory is authoritative again."""
        self.owner = None


class DirectoryState:
    """All line entries for one directory, created on demand."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}
        # tid -> {line: entry}: which entries a TID has marked.  The hot
        # commit/abort paths read it via marked_for() instead of scanning
        # every entry.
        self._mark_index: Dict[int, Dict[int, DirectoryEntry]] = {}

    def entry(self, line: int) -> DirectoryEntry:
        found = self._entries.get(line)
        if found is None:
            found = DirectoryEntry(line, seq=len(self._entries))
            self._entries[line] = found
        return found

    def peek(self, line: int) -> Optional[DirectoryEntry]:
        return self._entries.get(line)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self):
        return self._entries.values()

    def mark_line(self, line: int, tid: int, word_mask: int) -> DirectoryEntry:
        """Mark through the index — equivalent to ``entry(line).mark(...)``
        but queryable via :meth:`marked_for` without a full scan."""
        entry = self.entry(line)
        entry.mark(tid, word_mask)
        bucket = self._mark_index.get(tid)
        if bucket is None:
            bucket = self._mark_index[tid] = {}
        bucket[line] = entry
        return entry

    def marked_for(self, tid: int):
        """Entries currently marked by ``tid``, in creation order.

        Only sees marks placed via :meth:`mark_line`; entries unmarked or
        re-marked by another TID since are filtered (and pruned) here.
        """
        bucket = self._mark_index.get(tid)
        if not bucket:
            return []
        live = [e for e in bucket.values() if e.marked and e.marked_by == tid]
        if not live:
            del self._mark_index[tid]
            return []
        if len(live) != len(bucket):
            self._mark_index[tid] = {e.line: e for e in live}
        live.sort(key=lambda e: e.seq)
        return live

    def drop_marks(self, tid: int) -> None:
        """Forget a finished TID's mark-index bucket."""
        self._mark_index.pop(tid, None)

    def working_set_entries(self, home: int) -> int:
        """Entries with at least one remote sharer or a remote owner —
        the directory-cache working set of Table 3."""
        count = 0
        for entry in self._entries.values():
            if entry.owner is not None and entry.owner != home:
                count += 1
            elif any(sharer != home for sharer in entry.sharers):
                count += 1
        return count
