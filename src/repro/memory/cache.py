"""Set-associative caches with TCC speculative state.

Each cache line carries per-word state, exactly as in Figure 1b of the
paper ("Tag bits include valid, speculatively-modified (SM), and
speculatively-read (SR) bits for each word"):

* ``valid_mask`` — which words hold meaningful data.  Word-granularity
  invalidations clear individual valid bits, so a line can be partially
  valid; write-backs send only valid words and main memory merges them.
* ``sr_mask`` — speculatively read by the current transaction; an
  invalidation hitting one of these words (from a logically-earlier
  transaction) violates the transaction.
* ``sm_mask`` — speculatively modified by the current transaction; SM
  data is invisible to the rest of the system until commit (lazy
  versioning) and discarded on abort.

At line granularity the same machinery runs with full-line masks, which is
exactly how the paper describes line-level tracking.

Speculative lines are never chosen as victims; if a set fills up with
speculative lines, the set is allowed to overflow (modelling a victim
buffer / VTM-style fallback) and the overflow is counted — the paper notes
that with large private L2 caches these overflows are rare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.memory.address import AddressMap


@dataclass
class CacheLine:
    """One cache line: per-word tag state plus actual word values."""

    line: int
    data: List[int]
    valid_mask: int = 0
    dirty: bool = False
    sr_mask: int = 0
    sm_mask: int = 0
    #: TID of the local commit that produced the current dirty data and
    #: the word mask that commit wrote (hardened protocol only; -1/0
    #: when untracked).  An invalidation carrying an older TID must not
    #: touch those words: they were serialized *after* its commit, and
    #: destroying them would drop the only architectural copy.
    commit_tid: int = -1
    commit_sm_mask: int = 0
    last_use: int = 0
    #: Monotone stamp from the owning cache at bucket insertion, used to
    #: reproduce dict-insertion scan order without scanning.
    insert_seq: int = 0

    @property
    def speculative(self) -> bool:
        return bool(self.sr_mask or self.sm_mask)

    def valid_words(self) -> Dict[int, int]:
        """Mapping word -> value for the valid words (write-back payload)."""
        words = {}
        mask = self.valid_mask
        word = 0
        while mask:
            if mask & 1:
                words[word] = self.data[word]
            mask >>= 1
            word += 1
        return words


@dataclass
class CacheStats:
    """Aggregate counters, kept cheap to update on the hot path."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    speculative_overflows: int = 0
    commits: int = 0
    aborts: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


class TagLRU:
    """Tag-only set-associative LRU: which lines are resident, no state.

    A timing model only: the L1 filter of
    :class:`~repro.memory.hierarchy.PrivateHierarchy` and the directory
    cache (one set of ``ways`` entries).  Sets are allocated on first
    access, like :class:`SpeculativeCache`'s.
    """

    def __init__(self, ways: int, n_sets: int = 1) -> None:
        if ways < 1:
            raise ValueError("a tag store needs at least one way")
        self.ways = ways
        self.n_sets = max(1, n_sets)
        self._sets: Dict[int, Dict[int, int]] = {}
        self._clock = 0

    def access(self, line: int) -> bool:
        """Touch ``line``: True on a hit; on a miss insert it, evicting
        the least recently used line of a full set."""
        index = line % self.n_sets
        bucket = self._sets.get(index)
        if bucket is None:
            bucket = self._sets[index] = {}
        self._clock += 1
        if line in bucket:
            bucket[line] = self._clock
            return True
        if len(bucket) >= self.ways:
            del bucket[min(bucket, key=bucket.get)]
        bucket[line] = self._clock
        return False

    def invalidate(self, line: int) -> None:
        bucket = self._sets.get(line % self.n_sets)
        if bucket is not None:
            bucket.pop(line, None)


class SpeculativeCache:
    """One level of private cache with speculative word state.

    The cache stores real word values so the protocol can move data
    between nodes; ways/sets follow Table 2 geometry and victims are LRU
    among non-speculative lines.
    """

    def __init__(
        self,
        amap: AddressMap,
        size_bytes: int,
        ways: int,
        granularity: str = "word",
        name: str = "cache",
    ) -> None:
        if granularity not in ("word", "line"):
            raise ValueError(f"granularity must be 'word' or 'line', got {granularity!r}")
        n_lines = size_bytes // amap.line_size
        if n_lines < ways or n_lines % ways:
            raise ValueError(
                f"{size_bytes} bytes / {amap.line_size}B lines does not divide into {ways} ways"
            )
        self.amap = amap
        self.ways = ways
        self.n_sets = n_lines // ways
        self.granularity = granularity
        self.name = name
        # Set index -> {line: CacheLine}.  A set is allocated by its first
        # fill and kept (empty or not) for the rest of the run, so a
        # 512 KB cache touched by a few hundred lines holds a few hundred
        # dicts, not 2,048.
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        self._clock = 0
        # Index of lines with SR/SM state, so transaction-boundary walks
        # touch only the speculative footprint instead of every resident
        # line.  ``_spec_sorted`` caches the scan-ordered view (set index,
        # then bucket insertion order — identical to a full-set walk).
        self._spec: Dict[int, CacheLine] = {}
        self._spec_sorted: Optional[List[CacheLine]] = None
        self.stats = CacheStats()

    # -- indexing -------------------------------------------------------

    def _mask_for(self, word: int) -> int:
        if self.granularity == "line":
            return self.amap.full_line_mask
        return 1 << word

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # -- basic presence -------------------------------------------------

    def lookup(self, line: int, touch: bool = True) -> Optional[CacheLine]:
        """The resident line, or None.  ``touch`` refreshes LRU state."""
        bucket = self._sets.get(line % self.n_sets)
        if bucket is None:
            return None
        entry = bucket.get(line)
        if entry is not None and touch:
            entry.last_use = self._tick()
        return entry

    # -- accesses -------------------------------------------------------

    def read(self, line: int, word: int) -> Optional[int]:
        """Speculatively read a word; None on a line miss *or* an invalid
        word.  Sets SR when the read hits.
        """
        entry = self.lookup(line)
        if entry is None or not entry.valid_mask & (1 << word):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if not (entry.sr_mask | entry.sm_mask):
            self._spec[line] = entry
            self._spec_sorted = None
        entry.sr_mask |= self._mask_for(word)
        return entry.data[word]

    def write(self, line: int, word: int, value: int) -> bool:
        """Speculatively write a word; returns False on miss (caller must
        allocate first).

        The write sets SM, and the written word becomes valid; commit
        turns SM data dirty.  The caller is responsible for the
        write-back-before-first-speculative-write rule (see
        :class:`~repro.memory.hierarchy.PrivateHierarchy`).
        """
        entry = self.lookup(line)
        if entry is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        entry.data[word] = value
        entry.valid_mask |= 1 << word
        if not (entry.sr_mask | entry.sm_mask):
            self._spec[line] = entry
            self._spec_sorted = None
        entry.sm_mask |= self._mask_for(word)
        return True

    def fill(self, line: int, data: List[int]) -> Optional[CacheLine]:
        """Install a line, evicting if needed; returns the evicted line if any.

        When the line is already resident (a partial-line refetch), the
        incoming data fills only the *invalid* words — locally valid words
        (possibly dirty or speculative) always win.
        """
        if len(data) != self.amap.words_per_line:
            raise ValueError("fill data has wrong word count")
        index = line % self.n_sets
        bucket = self._sets.get(index)
        if bucket is None:
            bucket = self._sets[index] = {}
        existing = bucket.get(line)
        full = self.amap.full_line_mask
        if existing is not None:
            for word in range(self.amap.words_per_line):
                if not existing.valid_mask & (1 << word):
                    existing.data[word] = data[word]
            existing.valid_mask = full
            existing.last_use = self._tick()
            return None
        victim = None
        if len(bucket) >= self.ways:
            victim = self._evict_from(bucket)
        tick = self._tick()
        bucket[line] = CacheLine(
            line, list(data), valid_mask=full, last_use=tick, insert_seq=tick,
        )
        return victim

    def _evict_from(self, bucket: Dict[int, CacheLine]) -> Optional[CacheLine]:
        """Detach and return the LRU non-speculative line of a full set."""
        candidates = [entry for entry in bucket.values() if not entry.speculative]
        if not candidates:
            # Every resident line is speculative: overflow the set rather
            # than violate the transaction (victim-buffer model).
            self.stats.speculative_overflows += 1
            return None
        victim = min(candidates, key=lambda entry: entry.last_use)
        del bucket[victim.line]
        self.stats.evictions += 1
        if victim.dirty:
            self.stats.dirty_evictions += 1
        return victim

    def invalidate(self, line: int) -> Optional[CacheLine]:
        """Drop the whole line (inclusion victim or full invalidation)."""
        bucket = self._sets.get(line % self.n_sets)
        entry = bucket.pop(line, None) if bucket is not None else None
        if entry is not None and (entry.sr_mask | entry.sm_mask):
            if self._spec.pop(line, None) is not None:
                self._spec_sorted = None
        return entry

    def invalidate_words(self, line: int, word_mask: int) -> Optional[CacheLine]:
        """Clear valid/SR/SM bits for the given words; drop the line if no
        valid words remain.  Returns the (possibly removed) entry."""
        bucket = self._sets.get(line % self.n_sets)
        entry = bucket.get(line) if bucket is not None else None
        if entry is None:
            return None
        entry.valid_mask &= ~word_mask
        entry.sr_mask &= ~word_mask
        entry.sm_mask &= ~word_mask
        if not entry.valid_mask:
            del bucket[line]
        if not (entry.sr_mask | entry.sm_mask):
            if self._spec.pop(line, None) is not None:
                self._spec_sorted = None
        return entry

    def clear_dirty(self, line: int) -> None:
        """Mark a line clean after its data was flushed to the home node."""
        entry = self.lookup(line, touch=False)
        if entry is not None:
            entry.dirty = False

    # -- transaction boundaries ------------------------------------------

    def _spec_scan(self) -> List[CacheLine]:
        """Speculative lines in full-set scan order (set index, then bucket
        insertion order), produced from the index without touching the
        non-speculative resident lines."""
        scan = self._spec_sorted
        if scan is None:
            n_sets = self.n_sets
            scan = sorted(
                self._spec.values(),
                key=lambda entry: (entry.line % n_sets, entry.insert_seq),
            )
            self._spec_sorted = scan
        return scan

    def written_lines(self) -> List[CacheLine]:
        """Lines with speculative modifications (the transaction write-set)."""
        return [entry for entry in self._spec_scan() if entry.sm_mask]

    def read_lines(self) -> List[CacheLine]:
        """Lines with speculative reads (the transaction read-set)."""
        return [entry for entry in self._spec_scan() if entry.sr_mask]

    def commit_speculative(self) -> List[int]:
        """Transaction committed: SM data becomes dirty-owned, flags clear.

        Returns the committed (written) line numbers.
        """
        committed = []
        for entry in self._spec_scan():
            if entry.sm_mask:
                entry.dirty = True
                committed.append(entry.line)
            entry.sm_mask = 0
            entry.sr_mask = 0
        self._spec.clear()
        self._spec_sorted = None
        self.stats.commits += 1
        return committed

    def abort_speculative(self) -> List[int]:
        """Transaction violated: drop SM lines, clear SR flags.

        Returns the invalidated (speculatively written) line numbers.
        """
        dropped = []
        for entry in self._spec_scan():
            if entry.sm_mask:
                del self._sets[entry.line % self.n_sets][entry.line]
                dropped.append(entry.line)
            entry.sm_mask = 0
            entry.sr_mask = 0
        self._spec.clear()
        self._spec_sorted = None
        self.stats.aborts += 1
        return dropped

    # -- introspection ---------------------------------------------------

    def lines(self) -> Iterator[CacheLine]:
        """Every resident line, in set-index order and, within a set, in
        insertion order: the order of a walk over all sets."""
        sets = self._sets
        for index in sorted(sets):
            yield from sets[index].values()

    def resident_lines(self) -> int:
        return sum(len(bucket) for bucket in self._sets.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpeculativeCache({self.name!r}, {self.n_sets}x{self.ways}, "
            f"{self.resident_lines()} lines)"
        )
