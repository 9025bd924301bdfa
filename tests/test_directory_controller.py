"""Unit tests driving one DirectoryController directly.

The rig puts the directory under test on node 0 of a 4-node mesh;
nodes 1-3 are recorders that capture every message the directory sends
them.  Tests inject protocol messages and assert on the directory's
replies and state transitions.
"""

from collections import defaultdict

import pytest

from repro.core import messages as m
from repro.core.config import SystemConfig
from repro.directory.controller import (
    DIRECTORY_LATENCY, MEMORY_LATENCY, DirectoryController, ProtocolError,
)
from repro.faults import FaultPlan, NodeFault
from repro.faults.injector import FaultInjector
from repro.memory import AddressMap, MainMemory
from repro.network import Interconnect
from repro.sim import Engine


class Rig:
    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("n_processors", 4)
        config_kwargs.setdefault("ordered_network", True)
        self.config = SystemConfig(**config_kwargs)
        self.engine = Engine()
        self.amap = AddressMap(self.config.line_size, self.config.word_size)
        self.network = Interconnect(self.engine, 4, ordered=True)
        self.memory = MainMemory(self.amap)
        self.dir = DirectoryController(
            0, self.engine, self.network, self.memory, self.amap, self.config
        )
        self.received = defaultdict(list)
        self.network.register(0, self.dir.deliver)
        for node in (1, 2, 3):
            self.network.register(node, self.received[node].append)

    def send(self, src, msg):
        self.network.send(src, 0, msg)

    def run(self):
        self.engine.run()

    def of_type(self, node, cls):
        return [msg for msg in self.received[node] if isinstance(msg, cls)]


@pytest.fixture
def rig():
    return Rig()


def test_load_serves_memory_and_registers_sharer(rig):
    rig.memory.write_line(7, list(range(8)))
    rig.send(1, m.LoadRequest(requester=1, line=7, seq=1))
    rig.run()
    replies = rig.of_type(1, m.LoadReply)
    assert len(replies) == 1
    assert replies[0].data == list(range(8))
    assert replies[0].seq == 1
    assert 1 in rig.dir.state.entry(7).sharers
    assert rig.dir.stats.loads_served == 1


def test_load_reply_delayed_by_memory_latency(rig):
    rig.send(1, m.LoadRequest(requester=1, line=7, seq=1))
    rig.run()
    # directory latency (10) + memory latency (100) must both be paid
    assert rig.engine.now >= MEMORY_LATENCY + DIRECTORY_LATENCY


def test_skip_advances_nstid(rig):
    rig.send(1, m.SkipMsg(tid=1))
    rig.run()
    assert rig.dir.nstid == 2
    assert rig.dir.stats.skips_processed == 1


def test_probe_answered_immediately_when_served(rig):
    rig.send(1, m.ProbeRequest(requester=1, tid=1, writing=True))
    rig.run()
    replies = rig.of_type(1, m.ProbeReply)
    assert len(replies) == 1
    assert replies[0].nstid == 1


def test_probe_deferred_until_nstid_reaches_tid(rig):
    rig.send(1, m.ProbeRequest(requester=1, tid=3, writing=False))
    rig.run()
    assert rig.of_type(1, m.ProbeReply) == []
    rig.send(2, m.SkipMsg(tid=1))
    rig.send(2, m.SkipMsg(tid=2))
    rig.run()
    replies = rig.of_type(1, m.ProbeReply)
    assert len(replies) == 1
    assert replies[0].nstid == 3


def test_mark_sets_state_and_acks(rig):
    rig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b11}))
    rig.run()
    entry = rig.dir.state.entry(5)
    assert entry.marked
    assert entry.marked_words == 0b11
    assert entry.marked_by == 1
    assert len(rig.of_type(1, m.MarkAck)) == 1


def test_mark_for_wrong_tid_is_protocol_error(rig):
    rig.send(1, m.MarkMsg(committer=1, tid=5, lines={5: 1}))
    with pytest.raises(ProtocolError):
        rig.run()


def test_commit_without_sharers_completes_immediately(rig):
    rig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}))
    rig.send(1, m.CommitMsg(committer=1, tid=1))
    rig.run()
    entry = rig.dir.state.entry(5)
    assert entry.owner == 1
    assert entry.tid_tag == 1
    assert not entry.marked
    assert rig.dir.nstid == 2
    assert len(rig.of_type(1, m.CommitAck)) == 1
    assert rig.dir.stats.commits_served == 1


def test_commit_invalidates_sharers_and_waits_for_acks(rig):
    # nodes 2 and 3 read line 5 first
    for node in (2, 3):
        rig.send(node, m.LoadRequest(requester=node, line=5, seq=1))
    rig.run()
    rig.send(1, m.LoadRequest(requester=1, line=5, seq=1))
    rig.run()
    rig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}))
    rig.send(1, m.CommitMsg(committer=1, tid=1))
    rig.run()
    # invalidations to 2 and 3, none to the committer
    assert len(rig.of_type(2, m.Invalidation)) == 1
    assert len(rig.of_type(3, m.Invalidation)) == 1
    assert rig.of_type(1, m.Invalidation) == []
    # no acks yet: commit incomplete, NSTID unchanged
    assert rig.dir.nstid == 1
    assert rig.of_type(1, m.CommitAck) == []
    rig.send(2, m.InvAck(sharer=2, line=5, tid=1))
    rig.run()
    assert rig.dir.nstid == 1
    rig.send(3, m.InvAck(sharer=3, line=5, tid=1))
    rig.run()
    assert rig.dir.nstid == 2
    assert len(rig.of_type(1, m.CommitAck)) == 1


def test_word_granularity_keeps_invalidated_sharers(rig):
    rig.send(2, m.LoadRequest(requester=2, line=5, seq=1))
    rig.run()
    rig.send(1, m.LoadRequest(requester=1, line=5, seq=1))
    rig.run()
    rig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}))
    rig.send(1, m.CommitMsg(committer=1, tid=1))
    rig.run()
    rig.send(2, m.InvAck(sharer=2, line=5, tid=1))
    rig.run()
    assert rig.dir.state.entry(5).sharers == {1, 2}


def test_line_granularity_clears_invalidated_sharers():
    rig = Rig(granularity="line")
    rig.send(2, m.LoadRequest(requester=2, line=5, seq=1))
    rig.run()
    rig.send(1, m.LoadRequest(requester=1, line=5, seq=1))
    rig.run()
    rig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0xFF}))
    rig.send(1, m.CommitMsg(committer=1, tid=1))
    rig.run()
    rig.send(2, m.InvAck(sharer=2, line=5, tid=1))
    rig.run()
    assert rig.dir.state.entry(5).sharers == {1}


def test_inv_ack_with_writeback_merges_before_ownership_moves(rig):
    # Node 2 owns line 5 from an earlier commit.
    rig.send(2, m.MarkMsg(committer=2, tid=1, lines={5: 0b1}))
    rig.send(2, m.CommitMsg(committer=2, tid=1))
    rig.run()
    assert rig.dir.state.entry(5).owner == 2
    # Node 1 loads (forwarded), node 2 flushes, node 1 commits a new value.
    rig.send(1, m.LoadRequest(requester=1, line=5, seq=1))
    rig.run()
    assert len(rig.of_type(2, m.FlushRequest)) == 1
    rig.send(2, m.WriteBackMsg(writer=2, line=5, words={0: 42}, tid=1, remove=False))
    rig.run()
    assert rig.memory.read_word(5, 0) == 42
    assert rig.of_type(1, m.LoadReply)[0].data[0] == 42
    rig.send(1, m.MarkMsg(committer=1, tid=2, lines={5: 0b10}))
    rig.send(1, m.CommitMsg(committer=1, tid=2))
    rig.run()
    # Node 2 (previous owner, still sharer) gets the invalidation and
    # rides its surviving word back on the ack.
    assert len(rig.of_type(2, m.Invalidation)) == 1
    rig.send(2, m.InvAck(sharer=2, line=5, tid=2, wb_words={3: 99}, wb_tid=1))
    rig.run()
    assert rig.memory.read_word(5, 3) == 99
    assert rig.dir.state.entry(5).owner == 1


def test_load_to_marked_line_stalls_until_commit(rig):
    rig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}))
    rig.run()
    rig.send(2, m.LoadRequest(requester=2, line=5, seq=7))
    rig.run()
    assert rig.of_type(2, m.LoadReply) == []
    assert rig.dir.stats.loads_stalled == 1
    rig.send(1, m.CommitMsg(committer=1, tid=1))
    rig.run()
    # After the commit the stalled load is forwarded to the new owner.
    assert len(rig.of_type(1, m.FlushRequest)) == 1


def test_load_to_marked_line_released_by_abort(rig):
    rig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}))
    rig.run()
    rig.send(2, m.LoadRequest(requester=2, line=5, seq=7))
    rig.run()
    rig.send(1, m.AbortMsg(committer=1, tid=1))
    rig.run()
    assert not rig.dir.state.entry(5).marked
    assert len(rig.of_type(2, m.LoadReply)) == 1
    assert rig.dir.nstid == 2  # abort counts as a skip
    assert rig.dir.stats.aborts_served == 1


def test_retaining_abort_clears_marks_but_holds_nstid(rig):
    rig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}))
    rig.run()
    rig.send(1, m.AbortMsg(committer=1, tid=1, retain=True))
    rig.run()
    assert not rig.dir.state.entry(5).marked
    assert rig.dir.nstid == 1  # still waiting for TID 1


def test_owned_line_load_forwards_once_for_many_requesters(rig):
    rig.send(2, m.MarkMsg(committer=2, tid=1, lines={5: 0b1}))
    rig.send(2, m.CommitMsg(committer=2, tid=1))
    rig.run()
    rig.send(1, m.LoadRequest(requester=1, line=5, seq=1))
    rig.send(3, m.LoadRequest(requester=3, line=5, seq=1))
    rig.run()
    assert len(rig.of_type(2, m.FlushRequest)) == 1
    assert rig.dir.stats.loads_forwarded == 2
    rig.send(2, m.WriteBackMsg(writer=2, line=5, words={0: 8}, tid=1, remove=False))
    rig.run()
    assert len(rig.of_type(1, m.LoadReply)) == 1
    assert len(rig.of_type(3, m.LoadReply)) == 1


def test_stale_writeback_dropped_by_tid_tag(rig):
    rig.send(2, m.MarkMsg(committer=2, tid=1, lines={5: 0b1}))
    rig.send(2, m.CommitMsg(committer=2, tid=1))
    rig.run()
    rig.send(2, m.SkipMsg(tid=2))  # advance for the next commit
    rig.send(3, m.LoadRequest(requester=3, line=5, seq=1))
    rig.run()
    rig.send(2, m.WriteBackMsg(writer=2, line=5, words={0: 1}, tid=1, remove=False))
    rig.run()
    rig.send(3, m.MarkMsg(committer=3, tid=3, lines={5: 0b1}))
    rig.send(3, m.CommitMsg(committer=3, tid=3))
    rig.run()
    rig.send(2, m.InvAck(sharer=2, line=5, tid=3))
    rig.run()
    assert rig.dir.state.entry(5).owner == 3
    # A write-back tagged with the old TID arrives late: dropped.
    rig.send(2, m.WriteBackMsg(writer=2, line=5, words={0: 666}, tid=1, remove=True))
    rig.run()
    assert rig.memory.read_word(5, 0) != 666
    assert rig.dir.stats.writebacks_dropped == 1


def test_writeback_from_non_owner_dropped(rig):
    rig.send(1, m.WriteBackMsg(writer=1, line=5, words={0: 9}, tid=1, remove=True))
    rig.run()
    assert rig.memory.read_word(5, 0) == 0
    assert rig.dir.stats.writebacks_dropped == 1


def test_commit_from_wrong_tid_is_protocol_error(rig):
    rig.send(1, m.CommitMsg(committer=1, tid=4))
    with pytest.raises(ProtocolError):
        rig.run()


def test_commit_with_no_marks_is_protocol_error(rig):
    rig.send(1, m.CommitMsg(committer=1, tid=1))
    with pytest.raises(ProtocolError):
        rig.run()


def test_skip_vector_buffers_out_of_order_skips(rig):
    for tid in (4, 2, 3):
        rig.send(1, m.SkipMsg(tid=tid))
    rig.run()
    assert rig.dir.nstid == 1
    rig.send(1, m.SkipMsg(tid=1))
    rig.run()
    assert rig.dir.nstid == 5


def test_token_write_updates_memory_and_acks(rig):
    rig.send(1, m.TokenWrite(committer=1, tid=1, lines={5: {0: 11, 2: 22}}))
    rig.run()
    assert rig.memory.read_word(5, 0) == 11
    assert rig.memory.read_word(5, 2) == 22
    assert rig.dir.state.entry(5).tid_tag == 1
    assert len(rig.of_type(1, m.TokenWriteAck)) == 1


def test_occupancy_sample_recorded_per_commit(rig):
    rig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}))
    rig.send(1, m.CommitMsg(committer=1, tid=1))
    rig.run()
    assert len(rig.dir.stats.occupancy_samples) == 1
    assert rig.dir.stats.occupancy_samples[0] >= 0


def test_quiescent_check_flags_pending_state(rig):
    rig.send(1, m.ProbeRequest(requester=1, tid=9, writing=False))
    rig.run()
    with pytest.raises(ProtocolError, match="pending probes"):
        rig.dir.quiescent_check()


def test_quiescent_check_passes_when_clean(rig):
    rig.send(1, m.SkipMsg(tid=1))
    rig.run()
    rig.dir.quiescent_check()


def test_in_flight_counts_waiting_state(rig):
    idle = {"active_commit_tid": None, "pending_probes": 0,
            "stalled_loads": 0, "pending_forwards": 0, "awaiting_words": 0}
    assert rig.dir.in_flight() == idle
    rig.dir.deliver(m.ProbeRequest(requester=1, tid=9, writing=False))
    rig.dir.deliver(m.MarkMsg(committer=1, tid=1, lines={5: 0b1}))
    rig.dir.deliver(m.LoadRequest(requester=2, line=5, seq=7))
    rig.run()
    assert rig.dir.in_flight() == dict(idle, pending_probes=1, stalled_loads=1)
    with pytest.raises(ProtocolError, match="1 pending probes, 1 stalled loads"):
        rig.dir.quiescent_check()


# ----------------------------------------------------------------------
# occupancy server: one message at a time, DIRECTORY_LATENCY each
# ----------------------------------------------------------------------

def test_same_cycle_messages_served_fifo_latency_apart(rig):
    latency = DIRECTORY_LATENCY
    for tid in (1, 2, 3):
        rig.dir.deliver(m.SkipMsg(tid=tid))
    for served in (1, 2, 3):
        rig.engine.run(until=served * latency - 1)
        assert rig.dir.stats.skips_processed == served - 1
        rig.engine.run(until=served * latency)
        assert rig.dir.stats.skips_processed == served
        # Skips in delivery order each advance the NSTID at once; any
        # other order would leave a gap.
        assert rig.dir.nstid == served + 1
    assert rig.dir.stats.busy_cycles == 3 * latency


def test_dir_stall_window_holds_queued_messages():
    rig = Rig()
    plan = FaultPlan(node_faults=(NodeFault("dir_stall", 0, 0, 50),))
    rig.dir.fault_injector = FaultInjector(plan, 4)
    latency = DIRECTORY_LATENCY
    rig.dir.deliver(m.SkipMsg(tid=1))
    rig.dir.deliver(m.SkipMsg(tid=2))
    rig.engine.run(until=50 + latency - 1)
    assert rig.dir.stats.skips_processed == 0
    rig.engine.run(until=50 + latency)
    assert rig.dir.stats.skips_processed == 1
    rig.engine.run(until=50 + 2 * latency)
    assert rig.dir.stats.skips_processed == 2
    # The dark window is a stall, not occupancy.
    assert rig.dir.stats.busy_cycles == 2 * latency
    assert rig.dir.fault_injector.stats.dir_stall_cycles == 50


def test_released_stalled_load_pays_occupancy_again(rig):
    latency = DIRECTORY_LATENCY
    rig.dir.deliver(m.MarkMsg(committer=1, tid=1, lines={5: 0b1}))
    rig.dir.deliver(m.LoadRequest(requester=2, line=5, seq=7))
    rig.dir.deliver(m.AbortMsg(committer=1, tid=1))
    rig.engine.run(until=3 * latency)
    assert rig.dir.stats.loads_stalled == 1
    assert rig.dir.stats.aborts_served == 1
    assert rig.dir.stats.loads_served == 0
    rig.engine.run(until=4 * latency)
    assert rig.dir.stats.loads_served == 1
    assert rig.dir.stats.busy_cycles == 4 * latency
    rig.run()
    assert len(rig.of_type(2, m.LoadReply)) == 1


def test_one_engine_event_per_message(rig):
    latency = DIRECTORY_LATENCY
    for tid in range(1, 6):
        rig.dir.deliver(m.SkipMsg(tid=tid))
    rig.run()
    # Service starts where the message arrives; the handler and the next
    # message's start share the service timer's callback.
    assert rig.engine.events_executed == 5
    assert rig.engine.now == 5 * latency
    assert rig.dir.nstid == 6


# ----------------------------------------------------------------------
# NSTID gap handling and hardened-protocol stale/duplicate paths
# ----------------------------------------------------------------------

@pytest.fixture
def hrig():
    """A rig with the hardened (seq/ack + retry-tolerant) protocol on."""
    return Rig(fault_plan=FaultPlan())


def test_probe_waits_across_out_of_order_skip_gap(rig):
    # Skips for 2 and 3 arrive before 1: the probe for TID 4 must stay
    # deferred across the gap and fire only when 1 closes it.
    rig.send(1, m.ProbeRequest(requester=1, tid=4, writing=True))
    rig.send(2, m.SkipMsg(tid=3))
    rig.send(2, m.SkipMsg(tid=2))
    rig.run()
    assert rig.of_type(1, m.ProbeReply) == []
    assert rig.dir.nstid == 1
    rig.send(2, m.SkipMsg(tid=1))
    rig.run()
    replies = rig.of_type(1, m.ProbeReply)
    assert len(replies) == 1
    assert replies[0].nstid == 4


def test_deferred_probes_across_gap_release_in_tid_order(rig):
    rig.send(1, m.ProbeRequest(requester=1, tid=3, writing=False))
    rig.send(2, m.ProbeRequest(requester=2, tid=2, writing=False))
    rig.run()
    rig.send(3, m.SkipMsg(tid=1))
    rig.run()
    # NSTID jumped 1 -> 2: the sharing probe for 2 answers with 2, and
    # the one for 3 is still waiting.
    assert [r.nstid for r in rig.of_type(2, m.ProbeReply)] == [2]
    assert rig.of_type(1, m.ProbeReply) == []
    rig.send(3, m.SkipMsg(tid=2))
    rig.run()
    assert [r.nstid for r in rig.of_type(1, m.ProbeReply)] == [3]


def test_skip_acked_and_duplicate_reacked(hrig):
    hrig.send(1, m.SkipMsg(tid=1, committer=1))
    hrig.run()
    assert len(hrig.of_type(1, m.SkipAck)) == 1
    assert hrig.dir.nstid == 2
    # A retransmitted skip (its ack was lost) must be re-acked so the
    # sender's tracker stops, and must not advance anything.
    hrig.send(1, m.SkipMsg(tid=1, committer=1))
    hrig.run()
    assert len(hrig.of_type(1, m.SkipAck)) == 2
    assert hrig.dir.nstid == 2


def test_duplicate_mark_is_idempotent_and_reacked(hrig):
    mark = m.MarkMsg(committer=1, tid=1, lines={5: 0b11}, attempt=1)
    hrig.send(1, mark)
    hrig.run()
    hrig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b11}, attempt=1))
    hrig.run()
    assert len(hrig.of_type(1, m.MarkAck)) == 2
    assert hrig.dir.state.entry(5).marked_words == 0b11


def test_stale_mark_from_aborted_attempt_dropped(hrig):
    # Attempt 2 aborted (retained); a straggler mark from attempt 1
    # arriving afterwards must not resurrect marks.
    hrig.send(1, m.AbortMsg(committer=1, tid=1, retain=True, attempt=2,
                            want_ack=True))
    hrig.run()
    assert len(hrig.of_type(1, m.AbortAck)) == 1
    hrig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}, attempt=1))
    hrig.run()
    assert hrig.of_type(1, m.MarkAck) == []
    assert not hrig.dir.state.entry(5).marked
    # The committer's next attempt marks normally.
    hrig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}, attempt=3))
    hrig.run()
    assert len(hrig.of_type(1, m.MarkAck)) == 1
    assert hrig.dir.state.entry(5).marked


def test_commit_for_past_tid_is_reacked_not_replayed(hrig):
    hrig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}, attempt=1))
    hrig.send(1, m.CommitMsg(committer=1, tid=1, attempt=1))
    hrig.run()
    assert hrig.dir.nstid == 2
    assert len(hrig.of_type(1, m.CommitAck)) == 1
    # The commit's ack was lost; the retransmitted commit arrives after
    # NSTID moved on.  It must be re-acked, not re-executed.
    hrig.send(1, m.CommitMsg(committer=1, tid=1, attempt=1))
    hrig.run()
    assert len(hrig.of_type(1, m.CommitAck)) == 2
    assert hrig.dir.nstid == 2
    assert hrig.dir.stats.commits_served == 1


def test_abort_for_past_tid_is_reacked(hrig):
    hrig.send(1, m.SkipMsg(tid=1, committer=1))
    hrig.run()
    hrig.send(1, m.AbortMsg(committer=1, tid=1, attempt=1, want_ack=True))
    hrig.run()
    assert len(hrig.of_type(1, m.AbortAck)) == 1
    assert hrig.dir.nstid == 2


def test_duplicate_pending_probe_deduped(hrig):
    hrig.send(1, m.ProbeRequest(requester=1, tid=3, writing=False))
    hrig.send(1, m.ProbeRequest(requester=1, tid=3, writing=False))
    hrig.run()
    hrig.send(2, m.SkipMsg(tid=1, committer=2))
    hrig.send(2, m.SkipMsg(tid=2, committer=2))
    hrig.run()
    assert len(hrig.of_type(1, m.ProbeReply)) == 1


def test_duplicate_inv_ack_dropped(hrig):
    for node in (2,):
        hrig.send(node, m.LoadRequest(requester=node, line=5, seq=1))
    hrig.run()
    hrig.send(1, m.MarkMsg(committer=1, tid=1, lines={5: 0b1}, attempt=1))
    hrig.send(1, m.CommitMsg(committer=1, tid=1, attempt=1))
    hrig.run()
    assert len(hrig.of_type(2, m.Invalidation)) == 1
    hrig.send(2, m.InvAck(sharer=2, line=5, tid=1))
    hrig.run()
    assert len(hrig.of_type(1, m.CommitAck)) == 1
    # The sharer's retransmitted ack lands after the commit finished.
    hrig.send(2, m.InvAck(sharer=2, line=5, tid=1))
    hrig.run()
    assert len(hrig.of_type(1, m.CommitAck)) == 1
    assert hrig.dir.nstid == 2


def test_stale_inv_ack_ride_salvaged_through_writeback_rule(hrig):
    """A duplicated InvAck for a finished commit can still carry the
    owner's only copy of a line; the ack is deduped but the ridden data
    must go through the ordinary write-back acceptance rule."""
    entry = hrig.dir.state.entry(7)
    entry.owner = 1
    entry.tid_tag = 5
    hrig.send(1, m.InvAck(sharer=1, line=7, tid=3, wb_words={0: 99}, wb_tid=5))
    hrig.run()
    assert hrig.memory.read_line(7)[0] == 99
    assert not hrig.dir.state.entry(7).owned
    assert hrig.dir.stats.writebacks_accepted == 1


def test_stale_inv_ack_ride_with_stale_tid_still_dropped(hrig):
    """The salvage path must not bypass the version rule: ridden data
    from a writer that is not the committer of the word's current
    version stays dropped, whatever its tag says."""
    hrig.memory.write_line(7, [1] * 8)
    entry = hrig.dir.state.entry(7)
    entry.owner = 1
    entry.tid_tag = 5
    # Word 0's architectural version: committed at TID 5 by node 2.
    hrig.dir._word_committer[7] = {0: (5, 2)}
    hrig.send(1, m.InvAck(sharer=1, line=7, tid=3, wb_words={0: 99}, wb_tid=4))
    hrig.run()
    assert hrig.memory.read_line(7)[0] == 1
    assert hrig.dir.state.entry(7).owner == 1
    assert hrig.dir.stats.writebacks_dropped == 1


def test_late_writeback_from_words_committer_is_merged(hrig):
    """A flush overtaken by a later commit of the same line must not lose
    the words that later commit did not overwrite: the previous
    committer's words merge into memory word-by-word."""
    hrig.memory.write_line(7, [0] * 8)
    entry = hrig.dir.state.entry(7)
    # Node 2 committed word 6 at TID 1, then node 1 committed word 3 at
    # TID 2 and took ownership before node 2's flush arrived.
    hrig.dir._note_commit_words(7, 0b1000000, 1, 2)
    hrig.dir._note_commit_words(7, 0b0001000, 2, 1)
    entry.owner = 1
    entry.tid_tag = 2
    hrig.send(
        1, m.WriteBackMsg(writer=2, line=7, words={6: 41}, tid=1, remove=False)
    )
    hrig.run()
    assert hrig.memory.read_line(7)[6] == 41
    assert hrig.dir.stats.writebacks_merged == 1
    assert hrig.dir.state.entry(7).owner == 1  # ownership untouched
    assert hrig.dir._awaiting[7] == {3}  # word 3 still rides with node 1


def test_load_of_unowned_line_waits_for_inflight_committed_word(hrig):
    """After ownership is released, a load must not be served from
    memory while a committed word's only copy is still in flight."""
    hrig.memory.write_line(7, [0] * 8)
    # Node 1 committed word 6 at TID 1; its flush has not arrived yet.
    hrig.dir._note_commit_words(7, 0b1000000, 1, 1)
    hrig.send(2, m.LoadRequest(requester=2, line=7, seq=1))
    hrig.run()
    assert hrig.of_type(2, m.LoadReply) == []
    hrig.send(
        1, m.WriteBackMsg(writer=1, line=7, words={6: 17}, tid=1, remove=False)
    )
    hrig.run()
    replies = hrig.of_type(2, m.LoadReply)
    assert len(replies) == 1
    assert replies[0].data[6] == 17
