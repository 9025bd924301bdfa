"""Address arithmetic and home-directory mapping.

Addresses are plain byte-address integers.  The machine is parameterized
by a line size (32 bytes in the paper's Table 2) and a word size (4 bytes,
PowerPC).  The *home* of a line is the node whose directory and physical
memory own it; the paper places pages first-touch
(:class:`FirstTouchMapping`).
"""

from __future__ import annotations

from typing import Dict, Iterable


class AddressMap:
    """Line/word arithmetic shared by caches, directories, and workloads."""

    def __init__(self, line_size: int = 32, word_size: int = 4) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line size must be a power of two, got {line_size}")
        if word_size <= 0 or word_size & (word_size - 1):
            raise ValueError(f"word size must be a power of two, got {word_size}")
        if word_size > line_size:
            raise ValueError("word size cannot exceed line size")
        self.line_size = line_size
        self.word_size = word_size
        self.words_per_line = line_size // word_size
        self._line_shift = line_size.bit_length() - 1
        self._word_shift = word_size.bit_length() - 1
        self._word_mask = self.words_per_line - 1

    def line_of(self, addr: int) -> int:
        """Line number containing byte address ``addr``."""
        return addr >> self._line_shift

    def word_of(self, addr: int) -> int:
        """Word index of ``addr`` within its line (0 .. words_per_line-1)."""
        return (addr >> self._word_shift) & self._word_mask

    def addr_of(self, line: int, word: int = 0) -> int:
        """Byte address of ``word`` within ``line`` (inverse of the above)."""
        return (line << self._line_shift) | (word << self._word_shift)

    def word_bit(self, addr: int) -> int:
        """Single-bit mask selecting ``addr``'s word — SM/SR masks use these."""
        return 1 << self.word_of(addr)

    @property
    def full_line_mask(self) -> int:
        """Mask with one bit per word in a line, all set."""
        return (1 << self.words_per_line) - 1

    def words_in_mask(self, mask: int) -> Iterable[int]:
        """Word indices present in a word-flag mask."""
        word = 0
        while mask:
            if mask & 1:
                yield word
            mask >>= 1
            word += 1


#: First-touch placement granularity in bytes (the paper's only policy).
PAGE_SIZE = 4096


class FirstTouchMapping:
    """First-touch page placement (the paper's policy).

    The first node to access any line of a page becomes the page's home.
    Lines never referenced resolve, for robustness, to an interleaved
    fallback so ``home()`` is total.
    """

    def __init__(self, n_nodes: int, page_size: int = PAGE_SIZE,
                 line_size: int = 32) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if page_size % line_size:
            raise ValueError("page size must be a multiple of line size")
        self.n_nodes = n_nodes
        self.lines_per_page = page_size // line_size
        self._page_home: Dict[int, int] = {}
        # line -> home, memoized only once the page is *placed* (placement
        # is permanent, so these entries can never go stale); the
        # interleaved fallback for untouched pages must not be cached.
        self._line_home: Dict[int, int] = {}

    def _page_of(self, line: int) -> int:
        return line // self.lines_per_page

    def touch(self, line: int, node: int) -> int:
        """Record ``node`` touching ``line``; return the (possibly new) home."""
        page = self._page_of(line)
        home = self._page_home.get(page)
        if home is None:
            home = node % self.n_nodes
            self._page_home[page] = home
        self._line_home[line] = home
        return home

    def home(self, line: int) -> int:
        home = self._line_home.get(line)
        if home is not None:
            return home
        page = self._page_of(line)
        home = self._page_home.get(page)
        if home is None:
            # Untouched page: fall back to interleave so the map is total.
            return page % self.n_nodes
        self._line_home[line] = home
        return home

    @property
    def placed_pages(self) -> int:
        return len(self._page_home)
