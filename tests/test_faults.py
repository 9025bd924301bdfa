"""Unit tests for the fault-injection subsystem (repro.faults)."""

import pytest

from repro.core.tid import TidVendor
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    NodeFault,
    PacketFault,
    AckTracker,
    Retrier,
    random_fault_plan,
)
from repro.network.message import Packet
from repro.sim import Engine


class RetryablePayload:
    retryable = True


class FragilePayload:  # no end-to-end retry protects this
    pass


def make_packet(src=0, dst=1, payload=None, traffic_class="commit"):
    return Packet(src, dst, payload or RetryablePayload(), 8, traffic_class)


def injected(plan, packets, delay=5, run_until=None):
    """Dispatch ``packets`` through a fresh injector; return
    (delivery times, stats)."""
    engine = Engine()
    stats = FaultStats()
    injector = FaultInjector(plan, 4, stats=stats)
    delivered = []
    for packet in packets:
        injector.dispatch(
            engine, lambda p: delivered.append((engine.now, p)), packet, delay
        )
    engine.run(until=run_until)
    return delivered, stats


# ----------------------------------------------------------------------
# plan validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(kind="explode", probability=0.1),
    dict(kind="drop", probability=-0.1),
    dict(kind="drop", probability=1.5),
    dict(kind="delay", probability=0.1, delay=0),
    dict(kind="drop", probability=0.1, start_cycle=-1),
    dict(kind="drop", probability=0.1, start_cycle=10, end_cycle=10),
])
def test_invalid_packet_faults_rejected(kwargs):
    with pytest.raises(ValueError):
        PacketFault(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(kind="meltdown", node=0, start_cycle=0, duration=10),
    dict(kind="dir_stall", node=-1, start_cycle=0, duration=10),
    dict(kind="dir_stall", node=0, start_cycle=-5, duration=10),
    dict(kind="cpu_pause", node=0, start_cycle=0, duration=0),
])
def test_invalid_node_faults_rejected(kwargs):
    with pytest.raises(ValueError):
        NodeFault(**kwargs)


def test_plan_rejects_foreign_entries():
    with pytest.raises(ValueError):
        FaultPlan(packet_faults=("not a rule",))


def test_plan_coerces_lists_and_stays_hashable():
    plan = FaultPlan(packet_faults=[PacketFault("drop", 0.1)],
                     node_faults=[NodeFault("dir_stall", 1, 0, 10)])
    assert isinstance(plan.packet_faults, tuple)
    hash(plan)
    assert not plan.empty
    assert FaultPlan().empty
    assert plan.node_windows("dir_stall", 1) == ((0, 10),)
    assert plan.node_windows("dir_stall", 2) == ()
    assert "drop" in plan.describe()
    assert FaultPlan().describe() == "(no faults)"


def test_random_fault_plans_are_bounded():
    kinds = set()
    for seed in range(30):
        plan = random_fault_plan(seed, n_nodes=8)
        assert plan == random_fault_plan(seed, n_nodes=8)
        assert plan.seed == seed
        assert 1 <= len(plan.packet_faults) <= 3
        for rule in plan.packet_faults:
            assert 0.01 <= rule.probability <= 0.10
        for fault in plan.node_faults:
            assert fault.node < 8
            assert fault.duration <= 4_000
            kinds.add(fault.kind)
    assert kinds == {"dir_stall", "cpu_pause"}


def test_rule_matching_filters():
    rule = PacketFault("drop", 1.0, traffic_classes=("commit",),
                       src_nodes=(0,), dst_nodes=(1,),
                       start_cycle=100, end_cycle=200)
    assert rule.matches(0, 1, "commit", 150)
    assert not rule.matches(0, 1, "miss", 150)
    assert not rule.matches(2, 1, "commit", 150)
    assert not rule.matches(0, 2, "commit", 150)
    assert not rule.matches(0, 1, "commit", 99)
    assert not rule.matches(0, 1, "commit", 200)


@pytest.mark.parametrize("filter_kwargs", [
    {"traffic_classes": ("commit",)},
    {"src_nodes": (0,)},
    {"dst_nodes": (1,)},
    {"start_cycle": 100},
    {"end_cycle": 200},
])
def test_any_filter_marks_a_rule_filtered(filter_kwargs):
    assert PacketFault("drop", 0.5, **filter_kwargs).filtered
    assert not PacketFault("drop", 0.5, delay=7).filtered


def test_an_unfiltered_rule_matches_every_packet():
    rule = PacketFault("delay", 0.3, delay=9)
    assert not rule.filtered
    for src, dst, cls, now in ((0, 1, "commit", 0), (5, 2, "miss", 10**6)):
        assert rule.matches(src, dst, cls, now)


# ----------------------------------------------------------------------
# injector actions
# ----------------------------------------------------------------------

def test_drop_removes_retryable_packet():
    plan = FaultPlan(packet_faults=(PacketFault("drop", 1.0),))
    delivered, stats = injected(plan, [make_packet()])
    assert delivered == []
    assert stats.drops == 1
    assert stats.packets_seen == 1


def test_drop_downgraded_to_delay_for_fragile_payload():
    plan = FaultPlan(packet_faults=(PacketFault("drop", 1.0, delay=100),))
    delivered, stats = injected(plan, [make_packet(payload=FragilePayload())])
    assert len(delivered) == 1
    assert delivered[0][0] > 5  # delayed beyond the fault-free time
    assert stats.drops == 0
    assert stats.downgraded_drops == 1
    assert stats.delays == 1


def test_dup_delivers_twice():
    plan = FaultPlan(packet_faults=(PacketFault("dup", 1.0, delay=50),))
    delivered, stats = injected(plan, [make_packet()])
    assert len(delivered) == 2
    assert delivered[0][0] == 5  # first copy on time
    assert delivered[1][0] > 5
    assert stats.duplicates == 1


def test_probability_zero_never_fires():
    plan = FaultPlan(packet_faults=(PacketFault("drop", 0.0),))
    delivered, stats = injected(plan, [make_packet() for _ in range(20)])
    assert len(delivered) == 20
    assert stats.injected_total == 0


def test_reorder_backstop_releases_lone_packet():
    plan = FaultPlan(packet_faults=(PacketFault("reorder", 1.0, delay=60),))
    delivered, stats = injected(plan, [make_packet()])
    assert len(delivered) == 1
    assert delivered[0][0] == 60  # held until the backstop
    assert stats.reorders == 1
    assert stats.reorder_backstops == 1


def test_reorder_later_packet_overtakes_held_one():
    plan = FaultPlan(packet_faults=(PacketFault("reorder", 1.0, delay=60),))
    engine = Engine()
    stats = FaultStats()
    injector = FaultInjector(plan, 4, stats=stats)
    delivered = []
    first = make_packet()
    second = make_packet()
    injector.dispatch(engine, lambda p: delivered.append(p), first, 5)
    injector.dispatch(engine, lambda p: delivered.append(p), second, 5)
    engine.run()
    # The second dispatch released the first (held) packet; the second
    # waited for its own backstop.  Both always arrive.
    assert delivered == [first, second]
    assert stats.reorders == 2
    assert stats.reorder_backstops == 1


def test_flush_held_delivers_everything():
    plan = FaultPlan(packet_faults=(PacketFault("reorder", 1.0, delay=10_000),))
    engine = Engine()
    injector = FaultInjector(plan, 4)
    delivered = []
    injector.dispatch(engine, lambda p: delivered.append(p), make_packet(), 5)
    injector.flush_held(engine, lambda p: delivered.append(p))
    assert len(delivered) == 1


def test_injector_is_deterministic():
    plan = FaultPlan(
        packet_faults=(
            PacketFault("drop", 0.3),
            PacketFault("dup", 0.3, delay=40),
            PacketFault("delay", 0.3, delay=40),
        ),
        seed=17,
    )
    packets = [make_packet(src=i % 4, dst=(i + 1) % 4) for i in range(50)]
    times_a, stats_a = injected(plan, packets)
    packets = [make_packet(src=i % 4, dst=(i + 1) % 4) for i in range(50)]
    times_b, stats_b = injected(plan, packets)
    assert [t for t, _ in times_a] == [t for t, _ in times_b]
    assert stats_a.as_dict() == stats_b.as_dict()
    assert stats_a.injected_total > 0


def test_node_fault_windows_report_remaining_pause():
    plan = FaultPlan(node_faults=(
        NodeFault("dir_stall", 1, start_cycle=100, duration=50),
        NodeFault("cpu_pause", 2, start_cycle=0, duration=30),
    ))
    injector = FaultInjector(plan, 4)
    assert injector.has_dir_stalls and injector.has_cpu_pauses
    assert injector.dir_stall_pause(1, 99) == 0
    assert injector.dir_stall_pause(1, 100) == 50
    assert injector.dir_stall_pause(1, 140) == 10
    assert injector.dir_stall_pause(1, 150) == 0
    assert injector.dir_stall_pause(0, 120) == 0
    assert injector.cpu_pause(2, 10) == 20
    assert injector.stats.dir_stall_cycles == 60
    assert injector.stats.cpu_pause_cycles == 20


# ----------------------------------------------------------------------
# retry primitives
# ----------------------------------------------------------------------

def test_retrier_backs_off_exponentially_to_cap():
    engine = Engine()
    sent = []
    done = []
    Retrier(engine, lambda: sent.append(engine.now), lambda: bool(done),
            base_timeout=10, backoff=2, cap=40)
    engine.run(until=120)
    # ticks at 10 (timeout->20), 30 (->40), 70 (->40 capped), 110
    assert sent == [10, 30, 70, 110]
    done.append(True)
    engine.run(until=1000)
    assert sent == [10, 30, 70, 110]  # self-cancelled after done


def test_retrier_counts_into_stats():
    engine = Engine()
    stats = FaultStats()
    Retrier(engine, lambda: None, lambda: False, 10, 2, 80, stats)
    engine.run(until=200)
    assert stats.retries > 0


def test_ack_tracker_resends_only_to_unacked_targets():
    engine = Engine()
    sent = []
    tracker = AckTracker(engine, [1, 2, 3],
                         lambda node: sent.append((engine.now, node)),
                         base_timeout=10, backoff=2, cap=40)
    tracker.acked(1)
    engine.run(until=15)
    assert sent == [(10, 2), (10, 3)]
    tracker.acked(2)
    tracker.acked(3)
    assert tracker.all_acked()
    engine.run(until=500)
    assert sent == [(10, 2), (10, 3)]  # no further resends
    tracker.acked(7)  # unknown node: harmless


# ----------------------------------------------------------------------
# vendor dedup
# ----------------------------------------------------------------------

def test_vendor_dedups_sequenced_requests():
    vendor = TidVendor(0)
    first = vendor.next_tid(3, seq=1)
    assert vendor.next_tid(3, seq=1) == first  # retry: same TID back
    assert vendor.duplicate_requests == 1
    second = vendor.next_tid(3, seq=2)
    assert second == first + 1
    # A late duplicate of seq 1 after seq 2 was minted still answers
    # with a cached TID rather than minting a gap.
    assert vendor.next_tid(3, seq=1) == second
    assert vendor.duplicate_requests == 2
    # Per-requester sequencing: another node's seq 1 is independent.
    other = vendor.next_tid(2, seq=1)
    assert other == second + 1


# ----------------------------------------------------------------------
# stale-invalidation word protection
# ----------------------------------------------------------------------

def _hardened_processor():
    from repro.core.config import SystemConfig
    from repro.core.system import ScalableTCCSystem

    system = ScalableTCCSystem(
        SystemConfig(n_processors=2, harden_protocol=True)
    )
    return system.processors[0]


def test_stale_dup_invalidation_cannot_destroy_committed_words():
    """An invalidation whose TID predates the commit that produced our
    dirty copy must not clear those words or flush ownership — they can
    be the only architectural copy of the line (``conform --source patterns
    --faults`` seed 379)."""
    proc = _hardened_processor()
    words = proc.config.line_size // proc.config.word_size
    proc.hierarchy.fill(7, list(range(words)))
    entry = proc.hierarchy.peek(7)
    entry.dirty = True
    entry.commit_tid = 9
    entry.commit_sm_mask = 0b1
    proc.latest_tid = 9

    wb_words, _ = proc._apply_invalidation(7, 0b1, inv_tid=5)
    entry = proc.hierarchy.peek(7)
    assert wb_words is None           # no ownership transfer
    assert entry.dirty                # still the owner's copy
    assert entry.valid_mask & 0b1     # the protected word survives


def test_partially_stale_invalidation_clears_only_unwritten_words():
    proc = _hardened_processor()
    words = proc.config.line_size // proc.config.word_size
    proc.hierarchy.fill(7, list(range(words)))
    entry = proc.hierarchy.peek(7)
    entry.dirty = True
    entry.commit_tid = 9
    entry.commit_sm_mask = 0b1
    proc.latest_tid = 9

    # Word 1 was never ours: the stale duplicate still invalidates it.
    wb_words, wb_tid = proc._apply_invalidation(7, 0b11, inv_tid=5)
    entry = proc.hierarchy.peek(7)
    assert entry.valid_mask & 0b1
    assert not (entry.valid_mask & 0b10)
    # The surviving words ride home tagged with our commit's TID, so the
    # home's TID-tag rule accepts them.
    assert wb_words is not None and 0 in wb_words
    assert wb_tid >= 9


def test_newer_invalidation_still_honoured():
    proc = _hardened_processor()
    words = proc.config.line_size // proc.config.word_size
    proc.hierarchy.fill(7, list(range(words)))
    entry = proc.hierarchy.peek(7)
    entry.dirty = True
    entry.commit_tid = 9
    entry.commit_sm_mask = 0b1
    proc.latest_tid = 9

    wb_words, _ = proc._apply_invalidation(7, 0b1, inv_tid=12)
    entry = proc.hierarchy.peek(7)
    assert not (entry.valid_mask & 0b1)  # genuinely superseded
    assert not entry.dirty               # ownership moved home


def test_validated_committer_protects_speculative_words():
    """Before local commit the about-to-be-committed data lives only in
    SM words; a stale duplicate invalidation must not clear them."""
    proc = _hardened_processor()
    words = proc.config.line_size // proc.config.word_size
    proc.hierarchy.fill(7, list(range(words)))
    entry = proc.hierarchy.peek(7)
    entry.sm_mask = 0b1
    proc.validated = True
    proc.current_tid = 11
    proc.in_transaction = True

    wb_words, _ = proc._apply_invalidation(7, 0b1, inv_tid=8)
    entry = proc.hierarchy.peek(7)
    assert wb_words is None
    assert entry.sm_mask & 0b1
    assert entry.valid_mask & 0b1
