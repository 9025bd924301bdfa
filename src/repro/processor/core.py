"""The TCC processor model.

A processor executes its schedule of transactions over its private
speculative cache hierarchy.  Non-memory instructions and cache hits
accumulate in a local cycle counter that is flushed into simulated time
lazily (before any remote operation), so hits cost no simulator events.
Remote misses, the commit protocol, and barriers run through the
engine/network and can be interleaved with asynchronously delivered
coherence messages (invalidations, flush-data requests), which the
processor services immediately at delivery time — mirroring the hardware
communication assist.

Violation model (Section 3.3): an invalidation whose word flags overlap
the current transaction's speculatively-read or -modified words violates
the transaction iff the invalidation comes from a logically *earlier*
transaction — one whose TID is lower than ours, or any committer at all
if we have not yet acquired a TID.  Invalidations from logically later
transactions only invalidate the cached words.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.messages import (
    AbortAck,
    CommitAck,
    FlushRequest,
    Invalidation,
    LoadReply,
    LoadRequest,
    MarkAck,
    ProbeReply,
    SkipAck,
    TidReply,
    WriteBackMsg,
)
from repro.faults.retry import Retrier
from repro.memory.address import AddressMap
from repro.memory.hierarchy import FLUSH_FIRST, PrivateHierarchy
from repro.network.interconnect import Interconnect
from repro.sim import PARK, Engine, Process
from repro.processor.stats import ProcessorStats
from repro.verify.serializability import CommitRecord
from repro.workloads.base import BARRIER, Transaction, TransactionSchedule


class ProcessorProtocolError(RuntimeError):
    """A processor-side protocol invariant was broken — always a bug."""


class TCCProcessor:
    """One node's CPU plus communication assist."""

    def __init__(
        self,
        node: int,
        engine: Engine,
        network: Interconnect,
        hierarchy: PrivateHierarchy,
        mapping: Any,
        amap: AddressMap,
        config: SystemConfig,
        system: Any,
    ) -> None:
        self.node = node
        self.engine = engine
        self.network = network
        self.hierarchy = hierarchy
        self.mapping = mapping
        self.amap = amap
        self.config = config
        self.system = system
        self.stats = ProcessorStats()

        # Transaction state
        self.in_transaction = False
        self.current_tid: Optional[int] = None
        self.latest_tid = 0
        self.violated = False
        self.validated = False
        self.retained = False
        self._consecutive_violations = 0
        #: Attempt counter, tagged onto marks/commits/aborts so the
        #: hardened directory can tell a live attempt's messages from a
        #: duplicated retry of an aborted one.  Maintained unconditionally
        #: (cheap); only *checked* when the protocol is hardened.
        self._attempt_id = 0

        # Hardened-protocol state (repro.faults): all inert when
        # ``config.protocol_hardened`` is False.
        self._hardened = config.protocol_hardened
        self._tid_seq = 0
        self._skip_trackers: Dict[int, Any] = {}
        self._abort_trackers: Dict[Tuple[int, int], Any] = {}
        self.fault_injector: Optional[Any] = None
        self.fault_stats: Optional[Any] = None

        # Execution-attempt accounting
        self._local_cycles = 0
        self._attempt_miss = 0
        self._attempt_useful = 0
        self._attempt_reads: List[Tuple[int, int, int]] = []

        # Flush-data requests deferred until the local commit completes
        self._deferred_flushes: List[FlushRequest] = []

        # Outstanding load state (single outstanding load: blocking core).
        # ``_load_line`` is None exactly when no load is outstanding.
        self._load_seq = 0
        self._fetches = 0  # remote fetches issued, to tell them apart
        self._load_line: Optional[int] = None
        self._load_home: Optional[int] = None
        self._load_poisoned = False

        # The processor's coroutine parks (``yield PARK``) on a load, a
        # TID request or a commit-engine wait; the matching handler
        # resumes it.  At most one of these flags is set at a time, and
        # ``Process.resume`` raises if a second wake-up slips through.
        # It also parks at the workload barrier and for the token
        # baseline's commit token, which keep their own queues.
        self._process: Optional[Process] = None
        self._waiting = False
        self._tid_waiting = False
        self.probe_replies: Dict[Tuple[int, bool], int] = {}
        self.mark_acks: set[int] = set()
        self.commit_acks: set[int] = set()

        self.finished = False
        self.finished_at = 0  # cycle at which the schedule ran out
        self.event_log = system.events

        from repro.baseline.token import TokenCommitEngine
        from repro.processor.commit import ScalableCommitEngine

        if config.commit_backend == "token":
            self.commit_engine = TokenCommitEngine(self)
        else:
            self.commit_engine = ScalableCommitEngine(self)

    # ------------------------------------------------------------------
    # message ingress (synchronous, the communication assist)
    # ------------------------------------------------------------------

    def deliver(self, msg: Any) -> None:
        kind = type(msg)
        if kind is LoadReply:
            self._on_load_reply(msg)
        elif kind is Invalidation:
            self._on_invalidation(msg)
        elif kind is FlushRequest:
            self._on_flush_request(msg)
        elif kind is ProbeReply:
            self._on_probe_reply(msg)
        elif kind is MarkAck:
            if self._hardened and (
                msg.tid != self.current_tid or msg.attempt != self._attempt_id
            ):
                self._count_stale()
                return
            self.mark_acks.add(msg.directory)
            self._notify()
        elif kind is CommitAck:
            if self._hardened and msg.tid != self.current_tid:
                self._count_stale()
                return
            self.commit_acks.add(msg.directory)
            self._notify()
        elif kind is TidReply:
            self._on_tid_reply(msg)
        elif kind is SkipAck:
            tracker = self._skip_trackers.get(msg.tid)
            if tracker is not None:
                tracker.acked(msg.directory)
                if tracker.all_acked():
                    del self._skip_trackers[msg.tid]
        elif kind is AbortAck:
            tracker = self._abort_trackers.get((msg.tid, msg.attempt))
            if tracker is not None:
                tracker.acked(msg.directory)
                if tracker.all_acked():
                    del self._abort_trackers[(msg.tid, msg.attempt)]
        else:
            handled = self.commit_engine.deliver(msg)
            if not handled:
                raise ProcessorProtocolError(
                    f"cpu {self.node}: unexpected message {msg!r}"
                )

    def _on_tid_reply(self, msg: TidReply) -> None:
        if self._hardened and msg.seq != self._tid_seq:
            # A delayed reply to an *earlier*, retried request arriving
            # after its transaction already got (and resolved) that TID.
            # Consuming it here would hand the current request a dead
            # TID; the current reply carries the current seq.
            self._count_stale()
            return
        if not self._tid_waiting:
            if self._hardened:
                # Duplicate of an already-consumed reply (vendor dedup
                # guarantees a retried request carries the same TID).
                self._count_stale()
                return
            raise ProcessorProtocolError(f"cpu {self.node}: unsolicited TID {msg.tid}")
        self._tid_waiting = False
        self._process.resume(msg.tid)

    def _count_stale(self) -> None:
        if self.fault_stats is not None:
            self.fault_stats.stale_drops += 1

    def _on_probe_reply(self, msg: ProbeReply) -> None:
        if msg.tid != self.current_tid:
            return  # stale reply from an aborted attempt
        key = (msg.directory, msg.writing)
        self.probe_replies[key] = msg.nstid
        self._notify()

    def _on_load_reply(self, msg: LoadReply) -> None:
        if self._load_line is None or msg.seq != self._load_seq:
            return  # stale (e.g. a dropped/retried load)
        if self._load_poisoned:
            # An invalidation for this line raced past the reply: the data
            # may predate a commit we have been told about.  Drop and retry
            # (Section 3.3, last race).
            self._load_poisoned = False
            self._load_seq += 1
            self.stats.load_retries += 1
            if self.event_log is not None:
                self.event_log.log(self.engine.now, "load_retry", self.node,
                                   line=msg.line)
            self._send(
                self._load_home,
                # The resend is already covered end-to-end by the Retrier
                # armed at the original issue site: its closure reads the
                # live _load_seq, so it re-sends *this* request on timeout.
                # A second Retrier here would double-fire.
                LoadRequest(  # repro: allow[proto-retry-wrap] covered by issue-site Retrier
                    self.node, self._load_line, self._load_seq,
                ),
            )
            return
        self._load_line = None
        # Install the line *now*, atomically with reply processing: an
        # invalidation delivered after this instant sees the cached line
        # (and can violate us); one delivered before it poisoned the load.
        # Leaving the fill to the resumed process would open a window
        # where the invalidation sees neither.
        self._fill(msg.line, msg.data)
        self._process.resume()

    # -- invalidations --------------------------------------------------

    def _on_invalidation(self, inv: Invalidation) -> None:
        wb_words, wb_tid = self._apply_invalidation(
            inv.line, inv.word_mask, inv.tid, inv.committer
        )
        from repro.core.messages import InvAck

        self._send(
            inv.directory,
            InvAck(self.node, inv.line, inv.tid, wb_words, wb_tid),
        )

    def _apply_invalidation(
        self, line: int, word_mask: int, inv_tid: int, committer: int = -1
    ) -> Tuple[Optional[Dict[int, int]], int]:
        """Shared invalidation logic; returns write-back payload if the
        invalidated line held committed (owner) data."""
        entry = self.hierarchy.peek(line)
        wb_words: Optional[Dict[int, int]] = None
        wb_tid = self.latest_tid
        if self._hardened and entry is not None:
            # Words this cache wrote under a TID *later* than the
            # invalidation's commit are immune to it: that commit
            # serialized first, so our values subsume its writes.  A
            # duplicated or delayed invalidation from it must not clear
            # them (or flush ownership) — the words it would destroy can
            # be the only architectural copy of the line.  Words outside
            # the protected set are invalidated normally.
            protected = 0
            if (
                self.validated
                and self.current_tid is not None
                and self.current_tid > inv_tid
            ):
                protected |= entry.sm_mask
            if entry.dirty and entry.commit_tid > inv_tid:
                protected |= entry.commit_sm_mask
            stale_bits = word_mask & protected
            if stale_bits:
                self._count_stale()
                word_mask &= ~protected
                if not word_mask:
                    return wb_words, wb_tid
        if entry is not None:
            overlap = word_mask & (entry.sr_mask | entry.sm_mask)
            if overlap and self.in_transaction and not self.validated:
                if self.current_tid is None or inv_tid < self.current_tid:
                    if self.event_log is not None:
                        self.event_log.log(self.engine.now, "violation",
                                           self.node, line=line, tid=inv_tid,
                                           committer=committer)
                    self._violate()
                elif entry.sm_mask & word_mask:
                    # A logically-later commit overwrote our unvalidated
                    # speculative write: the directory serialization makes
                    # this impossible.
                    raise ProcessorProtocolError(
                        f"cpu {self.node}: inv tid {inv_tid} > our tid "
                        f"{self.current_tid} hit SM words pre-validation"
                    )
            if entry.dirty or (self.validated and entry.sm_mask):
                # We are the previous owner (or a validated committer whose
                # ownership is being superseded): surviving valid words
                # must ride the ack into home memory before ownership
                # transfers, or they would be lost.  The line itself stays
                # cached (clean, minus the invalidated words) — dropping it
                # would also drop the running transaction's SR/SM tracking
                # on the surviving words and open a missed-violation hole.
                wb_words = {
                    word: value
                    for word, value in entry.valid_words().items()
                    if not word_mask & (1 << word)
                } or None
                if self.validated and self.current_tid is not None:
                    wb_tid = max(wb_tid, self.current_tid)
                self.hierarchy.invalidate_words(line, word_mask)
                self.hierarchy.flushed(line)  # ownership moved; data is home
            else:
                self.hierarchy.invalidate_words(line, word_mask)
        if self._load_line == line:
            self._load_poisoned = True
        return wb_words, wb_tid

    def _violate(self) -> None:
        self.violated = True
        self._notify()

    # -- flush-data requests ---------------------------------------------

    def _on_flush_request(self, msg: FlushRequest) -> None:
        entry = self.hierarchy.peek(msg.line)
        if entry is not None and entry.sm_mask and self.validated:
            # The directory already made us owner (our commit finished
            # there), but our local commit is still waiting on other
            # directories' acks, so the data is not architectural yet.
            # Serve the request right after the local commit.
            self._deferred_flushes.append(msg)
            return
        if entry is None or not entry.dirty:
            # The line left our cache (its write-back is in flight) or was
            # already flushed; the directory will be satisfied by that.
            return
        words = entry.valid_words()
        self.hierarchy.flushed(msg.line)
        self._send(
            msg.directory,
            WriteBackMsg(self.node, msg.line, words, self.latest_tid, remove=False),
        )

    def local_commit(self) -> List[int]:
        """Make speculative state architectural and serve any flush-data
        requests that arrived while the global commit was completing."""
        if self._hardened:
            written = {
                e.line: e.sm_mask for e in self.hierarchy.written_lines()
            }
        committed = self.hierarchy.commit_speculative()
        if self._hardened:
            for line in committed:
                entry = self.hierarchy.peek(line)
                if entry is not None:
                    entry.commit_tid = self.latest_tid
                    entry.commit_sm_mask = written.get(line, 0)
        if self.config.write_through_commit:
            # Data travelled with the marks; nothing stays dirty-owned.
            for line in committed:
                self.hierarchy.flushed(line)
        deferred, self._deferred_flushes = self._deferred_flushes, []
        for msg in deferred:
            self._on_flush_request(msg)
        return committed

    # ------------------------------------------------------------------
    # wakeup plumbing for the commit engine
    # ------------------------------------------------------------------

    def wait(self):
        """Park for the commit engine (``yield proc.wait()``) until the
        next relevant message arrival or violation."""
        self._waiting = True
        return PARK

    def _notify(self) -> None:
        if self._waiting:
            self._waiting = False
            self._process.resume()

    # ------------------------------------------------------------------
    # outgoing
    # ------------------------------------------------------------------

    def _send(self, dst: int, msg: Any) -> None:
        self.network.send(self.node, dst, msg)

    def multicast(self, dsts, msg: Any) -> None:
        self.network.multicast(self.node, dsts, msg)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def process_for(self, schedule: TransactionSchedule) -> Process:
        self._process = Process(self.engine, self._run(schedule),
                                name=f"cpu{self.node}")
        return self._process

    def _run(self, schedule: TransactionSchedule):
        for item in schedule:
            if item is BARRIER:
                if cycles := self._take_local_cycles():
                    yield cycles
                arrived = self.engine.now
                yield self.system.arrive_at_barrier(self._process)
                self.stats.idle_cycles += self.engine.now - arrived
            else:
                while not (yield from self._attempt(item)):
                    pass
        if cycles := self._take_local_cycles():
            yield cycles
        self.finished = True
        self.finished_at = self.engine.now
        return self.stats

    def _take_local_cycles(self) -> int:
        """Accumulated compute/hit cycles, to be slept off now with
        ``yield cycles`` before a remote operation (0: nothing to do)."""
        cycles = self._local_cycles
        if cycles:
            self._local_cycles = 0
            self._attempt_useful += cycles
        return cycles

    def _attempt(self, tx: Transaction):
        injector = self.fault_injector
        if injector is not None and injector.has_cpu_pauses:
            pause = injector.cpu_pause(self.node, self.engine.now)
            if pause:
                yield pause
        self._attempt_id += 1
        self.violated = False
        self.validated = False
        self.in_transaction = True
        if self.event_log is not None:
            self.event_log.log(self.engine.now, "tx_start", self.node,
                               tx=tx.tx_id)
        self._attempt_useful = 0
        self._attempt_miss = 0
        self._attempt_reads = []

        if self.retained and self.current_tid is None:
            yield from self.commit_engine.acquire_tid()

        commit_start = None
        committed = False
        for op in tx.ops:
            kind = op[0]
            if kind == "c":
                self._local_cycles += op[1]
            elif kind == "ld":
                yield from self._do_load(op[1])
            elif kind == "st":
                yield from self._do_store(op[1], op[2])
            elif kind == "add":
                value = yield from self._do_load(op[1])
                if not self.violated:
                    yield from self._do_store(op[1], value + op[2])
            if self.violated:
                break
        if cycles := self._take_local_cycles():
            yield cycles

        if not self.violated:
            commit_start = self.engine.now
            if self.event_log is not None:
                self.event_log.log(commit_start, "commit_start", self.node,
                                   tx=tx.tx_id)
            committed = yield from self.commit_engine.commit(tx)

        if committed:
            self._record_commit(tx, commit_start)
            return True

        # Violated: roll back and account the attempt as wasted.
        self.stats.violations += 1
        if commit_start is None:
            self.stats.execution_violations += 1
        else:
            self.stats.commit_violations += 1
        wasted = self._attempt_useful + self._attempt_miss
        if commit_start is not None:
            wasted += self.engine.now - commit_start
        self.stats.violation_cycles += wasted
        if self.event_log is not None:
            self.event_log.log(self.engine.now, "tx_abort", self.node,
                               tx=tx.tx_id, label=tx.label, wasted=wasted)
        self.hierarchy.abort_speculative()
        self.in_transaction = False
        self._consecutive_violations += 1
        if (
            self.config.commit_backend == "scalable"
            and not self.retained
            and self._consecutive_violations >= self.config.retention_threshold
        ):
            self.retained = True
            self.stats.tid_retentions += 1
        return False

    def _record_commit(self, tx: Transaction, commit_start: int) -> None:
        now = self.engine.now
        commit_cycles = now - commit_start
        self.stats.useful_cycles += self._attempt_useful
        self.stats.miss_cycles += self._attempt_miss
        self.stats.commit_cycles += commit_cycles
        self.stats.commit_wait.append(commit_cycles)
        self.stats.committed_transactions += 1
        self.stats.committed_instructions += tx.instructions
        self.stats.tx_instructions.append(tx.instructions)
        self._consecutive_violations = 0
        self.retained = False
        self.in_transaction = False
        self.validated = False
        if self.event_log is not None:
            self.event_log.log(now, "tx_commit", self.node,
                               tx=tx.tx_id, tid=self.latest_tid)
        self.system.commit_log.append(
            CommitRecord(
                tid=self.latest_tid,
                tx=tx,
                proc=self.node,
                reads=self._attempt_reads,
                commit_time=now,
            )
        )

    # -- memory operations -------------------------------------------------

    def _do_load(self, addr: int):
        line = self.amap.line_of(addr)
        word = self.amap.word_of(addr)
        while True:
            result = self.hierarchy.load(line, word)
            if result.hit:
                self._local_cycles += result.cycles
                self._attempt_reads.append((line, word, result.value))
                return result.value
            if self.violated:
                return None
            yield from self._remote_fetch(line)
            if self.violated:
                return None

    def _do_store(self, addr: int, value: int):
        line = self.amap.line_of(addr)
        word = self.amap.word_of(addr)
        while True:
            result = self.hierarchy.store(line, word, value)
            if result.hit:
                self._local_cycles += result.cycles
                return
            if result.outcome == FLUSH_FIRST:
                # Committed data must reach home before we overwrite it
                # speculatively (write-back rule, Section 3.1).
                self.hierarchy.flushed(result.flush_line)
                self._send(
                    self.mapping.home(result.flush_line),
                    WriteBackMsg(
                        self.node,
                        result.flush_line,
                        result.flush_words,
                        self.latest_tid,
                        remove=False,
                    ),
                )
                continue
            if self.violated:
                return
            yield from self._remote_fetch(line)
            if self.violated:
                return

    def _remote_fetch(self, line: int):
        if cycles := self._take_local_cycles():
            yield cycles
        started = self.engine.now
        home = self.mapping.touch(line, self.node)
        self._load_seq += 1
        self._fetches += 1
        self._load_line = line
        self._load_home = home
        self._load_poisoned = False
        if self.event_log is not None:
            self.event_log.log(self.engine.now, "load_miss", self.node,
                               line=line, home=home)
        self._send(home, LoadRequest(self.node, line, self._load_seq))
        if self._hardened:
            # End-to-end load retry: re-send with the *current* seq so a
            # poison-retry (which bumps the seq itself) is not raced.
            fetch = self._fetches

            def resend() -> None:
                self._send(
                    self._load_home,
                    LoadRequest(self.node, self._load_line, self._load_seq),
                )

            Retrier(
                self.engine, resend,
                lambda: self._fetches != fetch or self._load_line is None,
                stats=self.fault_stats,
            )
        yield PARK  # the reply handler fills the cache and resumes us
        self._attempt_miss += self.engine.now - started

    def _fill(self, line: int, data: List[int]) -> None:
        for victim in self.hierarchy.fill(line, data):
            self._send(
                self.mapping.home(victim.line),
                WriteBackMsg(
                    self.node,
                    victim.line,
                    victim.valid_words(),
                    self.latest_tid,
                    remove=True,
                ),
            )

    # ------------------------------------------------------------------
    # end-of-run drain
    # ------------------------------------------------------------------

    def drain_dirty_lines(self) -> int:
        """Write every committed-dirty line home (for final-state checks)."""
        dirty = [entry.line for entry in self.hierarchy.l2.lines() if entry.dirty]
        for line in dirty:
            words = self.hierarchy.extract_for_writeback(line)
            if words:
                self._send(
                    self.mapping.home(line),
                    WriteBackMsg(self.node, line, words, self.latest_tid, remove=True),
                )
        return len(dirty)
