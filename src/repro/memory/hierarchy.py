"""The per-processor private cache hierarchy.

The paper's processors have a 32 KB L1 (1-cycle) and a 512 KB L2
(6-cycle), with every level tracking SR/SM speculative state (Table 2,
Section 3.1).  Because both levels hold identical speculative state and
the protocol engages only when a request leaves the hierarchy, we keep the
*authoritative* state and data in a single :class:`SpeculativeCache` sized
as the L2, and model the L1 as an inclusive tag-only timing filter: an
access that hits the filter costs the L1 latency, an access that hits only
the backing cache costs the L2 latency, anything else leaves the node.

The hierarchy also implements the paper's write-back rule: the dirty bit
is checked on the first speculative write of each transaction, and if set
the committed data must first be flushed home so that main memory retains
the pre-transaction version (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memory.address import AddressMap
from repro.memory.cache import CacheLine, SpeculativeCache, TagLRU

HIT_L1 = "l1"
HIT_L2 = "l2"
MISS = "miss"
FLUSH_FIRST = "flush_first"

#: Table 2's private caches (fixed by the paper, not knobs): a 32 KB
#: 4-way L1 hit in 1 cycle and a 512 KB 8-way L2 hit in 6.
L1_SIZE = 32 * 1024
L1_WAYS = 4
L1_LATENCY = 1
L2_SIZE = 512 * 1024
L2_WAYS = 8
L2_LATENCY = 6


@dataclass
class AccessResult:
    """Outcome of a load/store against the private hierarchy."""

    outcome: str
    cycles: int = 0
    value: Optional[int] = None
    flush_line: Optional[int] = None
    flush_words: Optional[Dict[int, int]] = None

    @property
    def hit(self) -> bool:
        return self.outcome in (HIT_L1, HIT_L2)


class PrivateHierarchy:
    """L1 timing filter over an authoritative speculative L2."""

    def __init__(
        self, amap: AddressMap, granularity: str = "word", name: str = "hier"
    ) -> None:
        self.amap = amap
        self.l1 = TagLRU(L1_WAYS, L1_SIZE // amap.line_size // L1_WAYS)
        self.l2 = SpeculativeCache(amap, L2_SIZE, L2_WAYS, granularity, name=f"{name}.l2")
        self.granularity = granularity

    # -- timing helper ---------------------------------------------------

    def _hit(self, line: int, value: int) -> AccessResult:
        """A hit in the backing cache: L1 cost if the filter holds the
        line, L2 cost otherwise."""
        if self.l1.access(line):
            return AccessResult(HIT_L1, cycles=L1_LATENCY, value=value)
        return AccessResult(HIT_L2, cycles=L2_LATENCY, value=value)

    # -- accesses ---------------------------------------------------------

    def load(self, line: int, word: int) -> AccessResult:
        """A speculative read: sets SR on a hit."""
        value = self.l2.read(line, word)
        if value is None:
            self.l1.invalidate(line)
            return AccessResult(MISS)
        return self._hit(line, value)

    def store(self, line: int, word: int, value: int) -> AccessResult:
        """A speculative write: sets SM on a hit, unless the line's
        committed data must be flushed home first."""
        entry = self.l2.lookup(line)
        if entry is None:
            self.l1.invalidate(line)
            return AccessResult(MISS)
        if entry.dirty and not entry.sm_mask:
            # Paper rule: committed (dirty) data must reach home memory
            # before the first speculative overwrite in a new transaction.
            return AccessResult(
                FLUSH_FIRST,
                flush_line=line,
                flush_words=entry.valid_words(),
            )
        self.l2.write(line, word, value)
        return self._hit(line, value)

    def fill(self, line: int, data: List[int]) -> List[CacheLine]:
        """Install a remotely fetched line; returns dirty lines forced out."""
        victim = self.l2.fill(line, data)
        self.l1.access(line)
        if victim is None:
            return []
        self.l1.invalidate(victim.line)
        return [victim] if victim.dirty else []

    # -- external coherence actions ---------------------------------------

    def peek(self, line: int) -> Optional[CacheLine]:
        """The resident line without touching LRU state."""
        return self.l2.lookup(line, touch=False)

    def invalidate(self, line: int) -> Optional[CacheLine]:
        """Drop a line (inclusion victim etc.); returns its old state."""
        self.l1.invalidate(line)
        return self.l2.invalidate(line)

    def invalidate_words(self, line: int, word_mask: int) -> Optional[CacheLine]:
        """Word-granularity invalidation (remote commit); the line survives
        if it retains valid words.  Returns the updated/removed entry."""
        entry = self.l2.invalidate_words(line, word_mask)
        if entry is None or not entry.valid_mask:
            self.l1.invalidate(line)
        return entry

    def flushed(self, line: int) -> None:
        """The line's dirty data has reached home; keep it, now clean."""
        self.l2.clear_dirty(line)

    def extract_for_writeback(self, line: int) -> Optional[Dict[int, int]]:
        """Valid words for a write-back that removes the line from cache."""
        entry = self.l2.invalidate(line)
        self.l1.invalidate(line)
        return None if entry is None else entry.valid_words()

    # -- transaction boundaries --------------------------------------------

    def written_lines(self) -> List[CacheLine]:
        return self.l2.written_lines()

    def read_lines(self) -> List[CacheLine]:
        return self.l2.read_lines()

    def commit_speculative(self) -> List[int]:
        return self.l2.commit_speculative()

    def abort_speculative(self) -> List[int]:
        dropped = self.l2.abort_speculative()
        for line in dropped:
            self.l1.invalidate(line)
        return dropped

    # -- statistics ---------------------------------------------------------

    @property
    def stats(self):
        return self.l2.stats

    def read_set_bytes(self) -> int:
        """Current transaction read-set size in bytes (for Table 3)."""
        return sum(
            bin(entry.sr_mask).count("1") * self.amap.word_size
            for entry in self.l2.read_lines()
        )

    def write_set_bytes(self) -> int:
        """Current transaction write-set size in bytes (for Table 3)."""
        return sum(
            bin(entry.sm_mask).count("1") * self.amap.word_size
            for entry in self.l2.written_lines()
        )
