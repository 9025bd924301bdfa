"""The Now-Serving TID register and its Skip Vector (Figure 5).

A directory serves exactly one transaction ID at a time, in gap-free
ascending order.  Transactions with nothing to commit at this directory
send *skip* messages, possibly early and out of order; the Skip Vector
buffers them as a bitmap anchored at the currently served TID.  When the
current TID completes (commit, abort, or skip), the vector shifts through
every consecutively skipped TID and the Now-Serving TID advances by the
number of bits shifted — exactly the hardware behaviour in Figure 5.
"""

from __future__ import annotations


class SkipVector:
    """NSTID register plus skip bitmap.

    Bit ``i`` of the bitmap corresponds to TID ``nstid + i``; bit 0 set
    means the currently served TID is complete.  The bitmap is a Python
    int, so unlike the fixed-width hardware vector it cannot saturate; the
    high-water mark is tracked so a hardware sizing argument can be made
    from simulation results.
    """

    def __init__(self, first_tid: int = 1) -> None:
        self._nstid = first_tid
        self._bits = 0
        self.skips_received = 0
        self.stale_skips = 0
        self.max_width = 0

    @property
    def nstid(self) -> int:
        """The TID this directory is currently serving."""
        return self._nstid

    def is_skipped(self, tid: int) -> bool:
        """Whether a pending skip is buffered for ``tid``."""
        offset = tid - self._nstid
        return offset >= 0 and bool(self._bits >> offset & 1)

    def skip(self, tid: int) -> int:
        """Record that ``tid`` has nothing to commit here.

        Returns the number of TIDs the NSTID advanced (0 if the skip was
        buffered for later or was stale).  Stale skips (``tid`` already
        passed) are ignored: they arise from aborted transactions
        re-sending skips and from unordered delivery.
        """
        self.skips_received += 1
        offset = tid - self._nstid
        if offset < 0:
            self.stale_skips += 1
            return 0
        bits = self._bits | 1 << offset
        width = bits.bit_length()
        if width > self.max_width:
            self.max_width = width
        self._bits = bits
        return self._drain()

    def complete_current(self) -> int:
        """The served TID finished (commit or abort); advance.

        Returns the number of TIDs advanced (>= 1).
        """
        self._bits |= 1
        return self._drain()

    def _drain(self) -> int:
        """Shift out the run of set low bits, advancing the NSTID."""
        bits = self._bits
        # bits ^ (bits + 1) sets the trailing ones plus the next bit.
        advanced = (bits ^ (bits + 1)).bit_length() - 1
        if advanced:
            self._bits = bits >> advanced
            self._nstid += advanced
        return advanced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkipVector(nstid={self._nstid}, bits={bin(self._bits)})"
