"""Unit tests for the coherence message set (sizes and traffic classes)."""

import dataclasses

from repro.core import messages as m
from repro.network.message import (
    CLASS_COMMIT,
    CLASS_MISS,
    CLASS_OVERHEAD,
    CLASS_WRITEBACK,
    TRAFFIC_CLASSES,
)


def test_load_request_is_overhead():
    msg = m.LoadRequest(requester=1, line=5, seq=1)
    assert msg.traffic_class == CLASS_OVERHEAD
    assert msg.payload_bytes == 4


def test_load_reply_counts_line_data():
    msg = m.LoadReply(line=5, data=[0] * 8, seq=1)
    assert msg.traffic_class == CLASS_MISS
    assert msg.payload_bytes == 4 + 32


def test_skip_and_probe_are_commit_class():
    assert m.SkipMsg(tid=3).traffic_class == CLASS_COMMIT
    assert m.ProbeRequest(requester=0, tid=3, writing=True).traffic_class == CLASS_COMMIT
    assert m.ProbeReply(directory=0, tid=3, nstid=3, writing=True).traffic_class == CLASS_COMMIT


def test_mark_size_scales_with_lines_not_data():
    small = m.MarkMsg(committer=0, tid=1, lines={10: 0xFF})
    large = m.MarkMsg(committer=0, tid=1, lines={10: 0xFF, 11: 1, 12: 2})
    assert small.traffic_class == CLASS_COMMIT
    assert large.payload_bytes - small.payload_bytes == 2 * (4 + 1)


def test_write_through_mark_carries_data_cost():
    lean = m.MarkMsg(committer=0, tid=1, lines={10: 0b11})
    fat = m.MarkMsg(committer=0, tid=1, lines={10: 0b11}, data={10: {0: 7, 1: 9}})
    assert fat.payload_bytes == lean.payload_bytes + 8


def test_invalidation_class_and_size():
    msg = m.Invalidation(directory=0, line=9, word_mask=0b1, tid=4)
    assert msg.traffic_class == CLASS_COMMIT
    assert msg.payload_bytes == 9


def test_inv_ack_grows_with_writeback_payload():
    plain = m.InvAck(sharer=1, line=9, tid=4)
    carrying = m.InvAck(sharer=1, line=9, tid=4, wb_words={0: 5, 3: 7}, wb_tid=2)
    assert carrying.payload_bytes == plain.payload_bytes + 2 * 4 + 1


def test_writeback_is_writeback_class_and_counts_words():
    msg = m.WriteBackMsg(writer=1, line=9, words={0: 1, 1: 2, 2: 3}, tid=5, remove=True)
    assert msg.traffic_class == CLASS_WRITEBACK
    assert msg.payload_bytes == 4 + 4 + 1 + 12


def test_abort_default_is_not_retaining():
    assert not m.AbortMsg(committer=0, tid=1).retain
    assert m.AbortMsg(committer=0, tid=1, retain=True).retain


def test_token_messages():
    inv = m.TokenInv(committer=0, tid=1, lines={5: 0b1, 6: 0b10})
    assert inv.traffic_class == CLASS_COMMIT
    assert inv.payload_bytes == 4 + 2 * 5
    write = m.TokenWrite(committer=0, tid=1, lines={5: {0: 1, 1: 2}})
    assert write.payload_bytes == 4 + (4 + 1 + 8)
    assert m.TokenInvAck(node=1, tid=1).traffic_class == CLASS_OVERHEAD
    assert m.TokenWriteAck(directory=1, tid=1).traffic_class == CLASS_OVERHEAD


def test_flush_request_overhead():
    assert m.FlushRequest(directory=0, line=1).traffic_class == CLASS_OVERHEAD


def _minimal(cls):
    """An instance of message ``cls`` with every required field empty."""
    samples = {"int": 0, "bool": False, "List[int]": [0] * 8}
    return cls(**{
        f.name: samples.get(f.type, {})
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    })


def test_every_message_has_a_known_class_and_a_nonnegative_size():
    # The network reads both straight off the message it carries.
    classes = [
        cls for cls in vars(m).values()
        if isinstance(cls, type) and cls.__module__ == m.__name__
        and dataclasses.is_dataclass(cls)
    ]
    assert len(classes) >= 20
    for cls in classes:
        msg = _minimal(cls)
        assert msg.traffic_class in TRAFFIC_CLASSES, cls.__name__
        assert isinstance(msg.payload_bytes, int), cls.__name__
        assert msg.payload_bytes >= 0, cls.__name__
