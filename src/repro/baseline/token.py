"""The token-serialized commit engine (small-scale TCC baseline).

See :mod:`repro.baseline` for the motivation.  The engine plugs into
:class:`~repro.processor.core.TCCProcessor` exactly like the scalable
engine, but serializes every commit through one global token and pushes
write-through data + broadcast snoop invalidations, modelling the
original bus-based TCC on the mesh.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Set

from repro.core.messages import (
    TokenInv,
    TokenInvAck,
    TokenWrite,
    TokenWriteAck,
)
from repro.processor.commit import CommitEngine
from repro.sim import PARK, Process


class CommitToken:
    """The one global commit token, with a FIFO of parked processes.

    ``yield token.acquire(process)`` continues at once (``yield 0``) when
    the token is free, and otherwise parks until a ``release`` hands the
    token to the head of the queue.
    """

    def __init__(self) -> None:
        self.held = False
        self._waiters: Deque[Process] = deque()
        self.total_acquisitions = 0

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self, process: Process):
        """What ``process`` yields to take the token: 0 or ``PARK``."""
        if self.held:
            self._waiters.append(process)
            return PARK
        self.held = True
        self.total_acquisitions += 1
        return 0

    def release(self) -> None:
        if not self.held:
            raise RuntimeError("release of the commit token while not held")
        if self._waiters:
            self.total_acquisitions += 1
            self._waiters.popleft().resume()
        else:
            self.held = False


class TokenCommitEngine(CommitEngine):
    """Small-scale TCC: serialized write-through commit via a global token."""

    def __init__(self, proc) -> None:
        super().__init__(proc)
        self._inv_acks = 0
        self._expected_inv_acks = 0
        self._write_acks: Set[int] = set()
        self._expected_write_acks: Set[int] = set()

    def deliver(self, msg) -> bool:
        if isinstance(msg, TokenInv):
            self._on_token_inv(msg)
            return True
        if isinstance(msg, TokenInvAck):
            self._inv_acks += 1
            self.proc._notify()
            return True
        if isinstance(msg, TokenWriteAck):
            self._write_acks.add(msg.directory)
            self.proc._notify()
            return True
        return False

    def _on_token_inv(self, msg: TokenInv) -> None:
        proc = self.proc
        for line, word_mask in msg.lines.items():
            proc._apply_invalidation(line, word_mask, msg.tid, msg.committer)
        proc._send(msg.committer, TokenInvAck(proc.node, msg.tid))

    def commit(self, tx):
        proc = self.proc
        cfg = proc.config

        yield proc.system.token.acquire(proc._process)
        if proc.violated:
            proc.system.token.release()
            return False

        # Token ownership is the serialization point; the vendor call is
        # bookkeeping (the bus arbiter implicitly orders commits).
        tid = proc.system.vendor.next_tid(proc.node)
        proc.current_tid = tid

        lines_masks: Dict[int, int] = {}
        data_by_dir: Dict[int, Dict[int, Dict[int, int]]] = {}
        for entry in proc.hierarchy.written_lines():
            lines_masks[entry.line] = entry.sm_mask
            home = proc.mapping.home(entry.line)
            written_words = {
                word: entry.data[word]
                for word in proc.amap.words_in_mask(entry.sm_mask & entry.valid_mask)
            }
            data_by_dir.setdefault(home, {})[entry.line] = written_words

        write_set_bytes = proc.hierarchy.write_set_bytes()
        read_set_bytes = proc.hierarchy.read_set_bytes()

        self._inv_acks = 0
        self._write_acks = set()
        others = [p for p in range(cfg.n_processors) if p != proc.node]
        if lines_masks:
            # Write-through broadcast commit.  Data goes to the home
            # memories *first* and is acknowledged before the snoop
            # invalidations go out, so any processor whose load was
            # poisoned by an invalidation always refetches post-commit
            # memory (the ordered bus gives small-scale TCC this for
            # free; on the mesh we enforce it with the ack barrier).
            self._expected_inv_acks = len(others)
            self._expected_write_acks = set(data_by_dir)
            for directory, lines in data_by_dir.items():
                proc._send(directory, TokenWrite(proc.node, tid, lines))
            while not self._write_acks >= self._expected_write_acks:
                yield proc.wait()
            if others:
                proc.multicast(others, TokenInv(proc.node, tid, lines_masks))
        else:
            self._expected_inv_acks = 0
            self._expected_write_acks = set()

        while self._inv_acks < self._expected_inv_acks:
            yield proc.wait()

        proc.validated = True
        proc.latest_tid = tid
        committed_lines = proc.hierarchy.commit_speculative()
        for line in committed_lines:
            proc.hierarchy.flushed(line)  # write-through: nothing stays dirty
        proc.system.vendor.resolve(tid)
        proc.current_tid = None
        proc.system.token.release()

        proc.stats.write_set_bytes.append(write_set_bytes)
        proc.stats.read_set_bytes.append(read_set_bytes)
        proc.stats.dirs_touched.append(len(data_by_dir))
        return True
