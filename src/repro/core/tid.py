"""The global Transaction ID vendor.

Section 3.3: "TIDs are assigned by a global TID vendor" producing a
*gap-free* sequence — distributed timestamp schemes (TLR-style) produce
unique ordered IDs but with gaps, which would wedge the directories' NSTID
registers forever.  The vendor is a trivial counter; what matters is the
gap-free contract, which :meth:`TidVendor.check_all_resolved` lets tests
and the system assert at end of run.

TIDs start at 1 so code can use 0/None as "no TID".
"""

from __future__ import annotations

from typing import Dict, Set

#: The node hosting the vendor (Figure 1a puts it beside node 0).
VENDOR_NODE = 0


class TidVendor:
    """Central gap-free TID counter with resolution bookkeeping."""

    def __init__(self) -> None:
        self._next = 1
        self._outstanding: Dict[int, int] = {}  # tid -> owning processor
        self._resolved: Set[int] = set()
        self.issued = 0
        # requester -> (seq, tid) of its last sequenced request, so a
        # duplicated/retried TidRequest never burns a second TID (the
        # gap-free contract must survive an unreliable fabric).
        self._last_seq: Dict[int, tuple] = {}
        self.duplicate_requests = 0

    def next_tid(self, requester: int, seq: int = 0) -> int:
        """Issue the next TID to ``requester``.

        ``seq > 0`` marks a sequenced (hardened-protocol) request:
        re-asking with the same or an older seq returns the TID already
        issued for it instead of minting a new one.
        """
        if seq:
            last = self._last_seq.get(requester)
            if last is not None and seq <= last[0]:
                self.duplicate_requests += 1
                return last[1]
        tid = self._next
        self._next += 1
        self.issued += 1
        self._outstanding[tid] = requester
        if seq:
            self._last_seq[requester] = (seq, tid)
        return tid

    def resolve(self, tid: int) -> None:
        """The transaction holding ``tid`` committed or aborted-with-skips.

        Every issued TID must eventually resolve exactly once — that is the
        gap-free contract the directories rely on.
        """
        owner = self._outstanding.pop(tid, None)
        if owner is None:
            raise ValueError(f"TID {tid} resolved twice or never issued")
        self._resolved.add(tid)

    @property
    def outstanding(self) -> Dict[int, int]:
        return dict(self._outstanding)

    @property
    def highest_issued(self) -> int:
        return self._next - 1

    def check_all_resolved(self) -> None:
        """Raise if any issued TID never committed or skipped (livelock or
        protocol bug)."""
        if self._outstanding:
            raise AssertionError(
                f"unresolved TIDs at end of run: {sorted(self._outstanding)}"
            )
        expected = set(range(1, self._next))
        if self._resolved != expected:
            missing = sorted(expected - self._resolved)
            raise AssertionError(f"gap in resolved TID sequence: missing {missing}")
