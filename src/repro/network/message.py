"""Packets and traffic classification.

The interconnect transports opaque payloads wrapped in :class:`Packet`
metadata.  Every packet is split, for accounting, into a fixed header
(counted as *overhead*) and a payload counted under one of the Figure 9
traffic classes:

* ``commit``     — commit-protocol addresses and control (probe, skip,
                   mark, commit, abort, TID traffic, invalidations, acks);
* ``miss``       — data moved to satisfy remote load misses;
* ``writeback``  — committed data returning to its home node (write-backs
                   and flushes);
* ``overhead``   — packet headers (every message pays this).
"""

from __future__ import annotations

from typing import Any

CLASS_COMMIT = "commit"
CLASS_MISS = "miss"
CLASS_WRITEBACK = "writeback"
CLASS_OVERHEAD = "overhead"

TRAFFIC_CLASSES = (CLASS_COMMIT, CLASS_MISS, CLASS_WRITEBACK, CLASS_OVERHEAD)

#: Fixed per-packet header: route, type, TID tag, address — 8 bytes is the
#: conventional flit-header allowance used in DSM studies.
HEADER_BYTES = 8

class Packet:
    """One message in flight on the interconnect.

    ``packet_id`` numbers the packets one :class:`Interconnect` sent, from
    1, so ids depend only on that machine's own traffic.
    """

    __slots__ = ("src", "dst", "payload", "payload_bytes", "traffic_class",
                 "send_time", "deliver_time", "packet_id")

    def __init__(
        self,
        src: int,
        dst: int,
        payload: Any,
        payload_bytes: int,
        traffic_class: str,
        send_time: int = 0,
        deliver_time: int = 0,
        packet_id: int = 0,
    ) -> None:
        if traffic_class not in TRAFFIC_CLASSES:
            raise ValueError(f"unknown traffic class {traffic_class!r}")
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.traffic_class = traffic_class
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.packet_id = packet_id

    @property
    def total_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes

    @property
    def latency(self) -> int:
        return self.deliver_time - self.send_time

    def __repr__(self) -> str:
        return (f"Packet(#{self.packet_id} {self.src}->{self.dst} "
                f"{self.payload!r}, {self.payload_bytes}B {self.traffic_class})")
