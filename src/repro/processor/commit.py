"""Commit engines: scalable two-phase parallel commit, and the
token-serialized baseline.

:class:`ScalableCommitEngine` implements the paper's contribution
(Sections 2.2 and 3.3).  For a transaction with TID *t*, writing vector
*W* (home directories of its write-set) and sharing vector *R* (homes of
its read-set):

1. acquire *t* from the global vendor (unless retained from a previous
   attempt);
2. multicast ``Skip(t)`` to every directory not in *W*;
3. probe every directory in *W ∪ R*; directories defer the reply until
   their NSTID reaches *t*;
4. as each writing directory answers ``NSTID = t``, send its ``Mark``
   message (line addresses + word flags — no data: write-back commit);
5. *validated* once every sharing probe returned ``NSTID >= t`` and every
   writing directory has acknowledged its marks — at this point no
   logically-earlier transaction can still invalidate us, because
   directories do not advance their NSTID past a commit until all its
   invalidations are acknowledged;
6. multicast ``Commit(t)``, wait for the directories to finish, then make
   the speculative state architectural.

On violation before validation the engine waits out in-flight mark acks,
gang-clears its marks with ``Abort``, resolves the TID (or retains it,
for starving transactions) and reports failure so the processor re-runs
the transaction.

:class:`TokenCommitEngine` is the small-scale TCC baseline (Section 2.2,
"operates under condition 2"): one global commit token, write-through
data broadcast, full serialization of commits — the bottleneck the
scalable design removes.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    MarkMsg,
    ProbeRequest,
    SkipMsg,
    TidRequest,
)
from repro.core.tid import VENDOR_NODE
from repro.faults.retry import AckTracker, Retrier
from repro.sim import PARK


class CommitEngine:
    """Interface shared by both backends."""

    def __init__(self, proc) -> None:
        self.proc = proc

    def deliver(self, msg) -> bool:
        """Handle a backend-specific message; False if not recognized."""
        return False

    def _retry(self, resend, done) -> None:
        """Arm a timeout-retry for one request (hardened protocol only)."""
        proc = self.proc
        Retrier(proc.engine, resend, done, stats=proc.fault_stats)

    def acquire_tid(self):
        """Fetch a TID from the global vendor (a network round trip)."""
        proc = self.proc
        proc._tid_waiting = True
        if proc._hardened:
            # Sequenced request: the vendor dedups retries by (node, seq),
            # so resending after a drop never mints a second TID.
            proc._tid_seq += 1
            seq = proc._tid_seq
            proc._send(VENDOR_NODE, TidRequest(proc.node, seq))
            self._retry(
                lambda: proc._send(VENDOR_NODE, TidRequest(proc.node, seq)),
                lambda: proc._tid_seq != seq or not proc._tid_waiting,
            )
        else:
            proc._send(VENDOR_NODE, TidRequest(proc.node))
        tid = yield PARK  # resumed by the TID reply
        proc.current_tid = tid
        proc.probe_replies = {}
        proc.mark_acks = set()
        proc.commit_acks = set()

    def commit(self, tx):
        raise NotImplementedError


class ScalableCommitEngine(CommitEngine):
    """The paper's directory-based parallel commit."""

    def commit(self, tx):
        proc = self.proc
        cfg = proc.config
        write_through = cfg.write_through_commit

        marks_by_dir: Dict[int, Dict[int, int]] = {}
        data_by_dir: Dict[int, Dict[int, Dict[int, int]]] = {}
        for entry in proc.hierarchy.written_lines():
            home = proc.mapping.home(entry.line)
            marks_by_dir.setdefault(home, {})[entry.line] = entry.sm_mask
            if write_through:
                written_words = {
                    word: entry.data[word]
                    for word in proc.amap.words_in_mask(entry.sm_mask & entry.valid_mask)
                }
                data_by_dir.setdefault(home, {})[entry.line] = written_words
        writing: Set[int] = set(marks_by_dir)
        sharing: Set[int] = {
            proc.mapping.home(entry.line) for entry in proc.hierarchy.read_lines()
        }

        write_set_bytes = proc.hierarchy.write_set_bytes()
        read_set_bytes = proc.hierarchy.read_set_bytes()

        phase_start = proc.engine.now
        if proc.current_tid is None:
            yield from self.acquire_tid()
            if proc.violated:
                yield from self._abort(writing, skips_sent=False, marks_sent=set())
                return False
        tid = proc.current_tid
        proc.stats.commit_tid_cycles += proc.engine.now - phase_start
        proc.mark_acks = set()
        proc.commit_acks = set()
        hardened = proc._hardened
        attempt = proc._attempt_id

        skip_targets = [d for d in range(cfg.n_processors) if d not in writing]
        skips_sent = False
        if not proc.retained:
            # A retained TID must keep every directory waiting at `tid`
            # until we actually commit, so its skips are deferred to the
            # validation point.
            self._send_skips(tid, skip_targets)
            skips_sent = True

        writing_order = sorted(writing)
        sharing_only = sorted(sharing - writing)
        for directory in writing_order:
            self._send_probe(directory, tid, True, hardened)
        for directory in sharing_only:
            self._send_probe(directory, tid, False, hardened)

        marks_sent: Set[int] = set()
        probe_start = proc.engine.now
        while True:
            if proc.violated:
                yield from self._abort(writing, skips_sent, marks_sent)
                return False
            for directory in writing_order:
                if directory in marks_sent:
                    continue
                reply = proc.probe_replies.get((directory, True))
                if reply is None:
                    continue
                if reply != tid:
                    raise RuntimeError(
                        f"cpu {proc.node}: writing probe for tid {tid} "
                        f"answered with NSTID {reply}"
                    )
                mark = MarkMsg(
                    proc.node,
                    tid,
                    marks_by_dir[directory],
                    data_by_dir.get(directory),
                    attempt,
                )
                proc._send(directory, mark)
                if hardened:
                    self._retry(
                        lambda d=directory, m=mark: proc._send(d, m),
                        lambda d=directory: (
                            proc.current_tid != tid
                            or proc._attempt_id != attempt
                            or d in proc.mark_acks
                        ),
                    )
                marks_sent.add(directory)
            writing_ready = marks_sent == writing and proc.mark_acks >= writing
            sharing_ready = all(
                proc.probe_replies.get((directory, False), -1) >= tid
                for directory in sharing_only
            )
            if writing_ready and sharing_ready:
                break
            yield proc.wait()

        # Validated: no logically-earlier transaction can violate us now.
        proc.validated = True
        proc.stats.commit_probe_cycles += proc.engine.now - probe_start
        ack_start = proc.engine.now
        if not skips_sent:
            self._send_skips(tid, skip_targets)
        for directory in writing_order:
            commit_msg = CommitMsg(proc.node, tid, attempt)
            proc._send(directory, commit_msg)
            if hardened:
                self._retry(
                    lambda d=directory, m=commit_msg: proc._send(d, m),
                    lambda d=directory: (
                        proc.current_tid != tid or d in proc.commit_acks
                    ),
                )
        while not proc.commit_acks >= writing:
            yield proc.wait()
            if proc.violated:
                raise RuntimeError(
                    f"cpu {proc.node}: violated after validation (tid {tid})"
                )
        proc.stats.commit_ack_cycles += proc.engine.now - ack_start

        proc.latest_tid = tid
        proc.local_commit()
        proc.system.vendor.resolve(tid)
        proc.current_tid = None
        proc.probe_replies = {}
        proc.retained = False

        proc.stats.write_set_bytes.append(write_set_bytes)
        proc.stats.read_set_bytes.append(read_set_bytes)
        proc.stats.dirs_touched.append(len(writing | sharing))
        return True

    def _abort(self, writing: Set[int], skips_sent: bool, marks_sent: Set[int]):
        proc = self.proc
        tid = proc.current_tid
        if tid is None:
            return
        # Aborts must not overtake marks still in flight to the same
        # directory; mark acks give us that ordering on an unordered net.
        while not proc.mark_acks >= marks_sent:
            yield proc.wait()
        if proc.retained:
            # Keep the TID: clear any marks, leave every directory waiting.
            self._send_aborts(tid, marks_sent, retain=True)
            return
        self._send_aborts(tid, writing, retain=False)
        if not skips_sent:
            skip_targets = [
                d for d in range(proc.config.n_processors) if d not in writing
            ]
            self._send_skips(tid, skip_targets)
        proc.system.vendor.resolve(tid)
        proc.current_tid = None
        proc.probe_replies = {}

    # -- hardened-protocol send helpers ---------------------------------
    #
    # Each helper degenerates to the bare historical send when the
    # protocol is not hardened (``config.protocol_hardened`` False), so
    # fault-free runs stay bit-identical.

    def _send_skips(self, tid: int, targets) -> None:
        proc = self.proc
        if not targets:
            return
        if not proc._hardened:
            proc.multicast(targets, SkipMsg(tid))
            return
        proc.multicast(targets, SkipMsg(tid, proc.node))
        proc._skip_trackers[tid] = AckTracker(
            proc.engine, targets,
            lambda d: proc._send(d, SkipMsg(tid, proc.node)),
            stats=proc.fault_stats,
        )

    def _send_probe(self, directory: int, tid: int, writing: bool,
                    hardened: bool) -> None:
        proc = self.proc
        probe = ProbeRequest(proc.node, tid, writing)
        proc._send(directory, probe)
        if hardened:
            self._retry(
                lambda: proc._send(directory, probe),
                lambda: (
                    proc.current_tid != tid
                    or (directory, writing) in proc.probe_replies
                ),
            )

    def _send_aborts(self, tid: int, targets: Set[int], retain: bool) -> None:
        proc = self.proc
        if not targets:
            return
        attempt = proc._attempt_id
        hardened = proc._hardened
        for directory in sorted(targets):
            proc._send(
                directory,
                AbortMsg(proc.node, tid, retain=retain, attempt=attempt,
                         want_ack=hardened),
            )
        if hardened:
            proc._abort_trackers[(tid, attempt)] = AckTracker(
                proc.engine, targets,
                lambda d: proc._send(
                    d,
                    AbortMsg(proc.node, tid, retain=retain, attempt=attempt,
                             want_ack=True),
                ),
                stats=proc.fault_stats,
            )
