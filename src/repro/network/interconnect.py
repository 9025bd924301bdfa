"""Message transport over the mesh with latency, bandwidth and jitter.

Delivery time for a packet from ``src`` to ``dst``:

    egress wait (per-node bandwidth serialization, optional)
  + hops(src, dst) * link_latency          (Table 2 / Figure 8 knob)
  + router overhead (fixed)
  + serialization  (total_bytes / link_bytes_per_cycle, optional)
  + jitter          (deterministic pseudo-random, unordered networks only)

The network is *unordered* by default, as in the paper ("additional
mechanisms are required to accommodate ... its distributed memory and
unordered interconnection network"): two packets between the same pair of
nodes may be delivered out of send order because of jitter.  Protocol
layers must (and do) tolerate this; an ``ordered=True`` mode exists for
differential testing.

Jitter comes from an instance-owned generator, never the module-global
``random`` state: a per-interconnect ``random.Random(seed)`` Mersenne
Twister stream, drawn with an inline ``getrandbits`` rejection loop,
bit-identical to ``randint(0, jitter)`` on the same stream.

``send`` and ``multicast`` are the hot path of every run (a 32-CPU run
sends tens of thousands of packets).  Both go through one loop,
``Interconnect._emit``, which computes hop count, egress, wire time,
jitter and the traffic counters inline.
"""

from __future__ import annotations

from collections import defaultdict
from random import Random
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.network.message import HEADER_BYTES, TRAFFIC_CLASSES, Packet
from repro.network.topology import MeshTopology
from repro.sim.engine import Engine

Handler = Callable[[Packet], None]

_CLASS_INDEX = {cls: i for i, cls in enumerate(TRAFFIC_CLASSES)}
_OVERHEAD = _CLASS_INDEX["overhead"]

class TrafficStats:
    """Byte counters by class and by receiving node (Figure 9's inputs).

    Counters are fixed-index lists that :class:`Interconnect` bumps on
    the hot path; the dict views the analysis layer reads
    (:attr:`bytes_by_class`, :attr:`bytes_into_node`,
    :attr:`bytes_out_of_node`) are built on demand.
    """

    __slots__ = ("_by_class", "_into", "_out", "packets")

    def __init__(self, n_nodes: int = 0) -> None:
        self._by_class: List[int] = [0] * len(TRAFFIC_CLASSES)
        self._into: List[int] = [0] * n_nodes
        self._out: List[int] = [0] * n_nodes
        self.packets = 0

    @property
    def bytes_by_class(self) -> Dict[str, int]:
        return dict(zip(TRAFFIC_CLASSES, self._by_class))

    @property
    def bytes_into_node(self) -> Dict[int, int]:
        return defaultdict(
            int, {node: count for node, count in enumerate(self._into) if count}
        )

    @property
    def bytes_out_of_node(self) -> Dict[int, int]:
        return defaultdict(
            int, {node: count for node, count in enumerate(self._out) if count}
        )

    @property
    def total_bytes(self) -> int:
        return sum(self._by_class)

    def per_class_fraction(self) -> Dict[str, float]:
        total = self.total_bytes
        if not total:
            return {cls: 0.0 for cls in TRAFFIC_CLASSES}
        return {
            cls: count / total
            for cls, count in zip(TRAFFIC_CLASSES, self._by_class)
        }


class Interconnect:
    """The machine's 2-D mesh transport."""

    def __init__(
        self,
        engine: Engine,
        n_nodes: int,
        link_latency: int = 3,
        router_latency: int = 1,
        local_latency: int = 1,
        link_bytes_per_cycle: Optional[int] = 16,
        ordered: bool = False,
        jitter: int = 2,
        seed: int = 0,
        link_contention: bool = False,
    ) -> None:
        self.engine = engine
        self.n_nodes = n_nodes
        self.topology = MeshTopology(n_nodes)
        self.link_latency = link_latency
        self.router_latency = router_latency
        self.local_latency = local_latency
        self.link_bytes_per_cycle = link_bytes_per_cycle
        self.ordered = ordered
        self.jitter = jitter if not ordered else 0
        self._rng = Random(seed)
        # randint(0, j) draws getrandbits(k) with k = (j + 1).bit_length()
        # until the value is <= j; _emit() runs that loop inline.
        self._getrandbits = self._rng.getrandbits
        self._jitter_bits = (self.jitter + 1).bit_length()
        self._hops = self.topology.hop_table
        self._handlers: List[Optional[Handler]] = [None] * n_nodes
        self._egress_free_at: List[int] = [0] * n_nodes
        self.link_contention = link_contention
        self._link_free_at: Dict[tuple, int] = defaultdict(int)
        self.stats = TrafficStats(n_nodes)
        #: Optional :class:`repro.faults.injector.FaultInjector`; when set
        #: it owns final delivery scheduling (drop/dup/delay/reorder).
        #: None (the default) keeps the fault-free fast path untouched.
        self.fault_injector = None

    # -- wiring -----------------------------------------------------------

    def register(self, node: int, handler: Handler) -> None:
        """Attach the node's message handler (its communication assist)."""
        self._check(node)
        if self._handlers[node] is not None:
            raise ValueError(f"node {node} already registered")
        self._handlers[node] = handler

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} outside [0, {self.n_nodes})")

    # -- timing -----------------------------------------------------------

    def transit_cycles(self, src: int, dst: int, total_bytes: int) -> int:
        """Pure wire time, excluding egress queueing and jitter."""
        hops = self.topology.hops(src, dst)
        if hops == 0:
            return self.local_latency
        return hops * self.link_latency + self._wire_cycles(total_bytes)

    def _wire_cycles(self, total_bytes: int) -> int:
        """Router overhead plus serialization of a ``total_bytes`` packet:
        the hop-independent part of a remote packet's wire time."""
        cycles = self.router_latency
        bandwidth = self.link_bytes_per_cycle
        if bandwidth:
            cycles += (total_bytes + bandwidth - 1) // bandwidth
        return cycles

    def _contended_transit(
        self, src: int, dst: int, total_bytes: int, start_offset: int
    ) -> int:
        """Wormhole-style XY traversal with per-link occupancy.

        The packet's head flit reserves each directed link in path order;
        a busy link stalls the packet until it frees.  Each link stays
        busy for the packet's serialization time.
        """
        serialization = 1
        if self.link_bytes_per_cycle:
            serialization = max(
                1,
                (total_bytes + self.link_bytes_per_cycle - 1)
                // self.link_bytes_per_cycle,
            )
        now = self.engine.now + start_offset
        arrival = now
        link_free = self._link_free_at
        for link in self.topology.route(src, dst):
            enter = arrival if arrival >= link_free[link] else link_free[link]
            link_free[link] = enter + serialization
            arrival = enter + self.link_latency
        arrival += self.router_latency + serialization
        return arrival - now

    # -- sending ----------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        payload_bytes: int,
        traffic_class: str,
    ) -> Packet:
        """Dispatch a packet; the destination handler runs at delivery time."""
        return self._emit(src, (dst,), payload, payload_bytes, traffic_class)

    def multicast(
        self,
        src: int,
        dsts: Iterable[int],
        payload: Any,
        payload_bytes: int,
        traffic_class: str,
    ) -> int:
        """Limited multicast (Section 2.2: "limited multicast messages are
        cheap in a high bandwidth interconnect").

        One full packet is injected and charged; the fabric replicates it
        toward the remaining destinations, each copy costing only a route
        byte of overhead.  Every destination still receives its own
        delivery with an independent latency.  Copies are sent, and draw
        jitter, in ``dsts`` order.
        """
        dsts = tuple(dsts)
        if dsts:
            self._emit(src, dsts, payload, payload_bytes, traffic_class)
        return len(dsts)

    def _emit(
        self,
        src: int,
        dsts: Tuple[int, ...],
        payload: Any,
        payload_bytes: int,
        traffic_class: str,
    ) -> Packet:
        """Inject one packet at ``src`` and deliver a copy to each of
        ``dsts``; returns the last copy.

        The first copy waits for the egress port and is charged its full
        header and payload.  The rest are in-fabric replicas: no egress
        wait, one route byte each (the routers replicate the flit; it is
        not re-injected at the source).
        """
        n_nodes = self.n_nodes
        if not 0 <= src < n_nodes:
            self._check(src)
        engine = self.engine
        now = engine.now
        stats = self.stats
        by_class = stats._by_class
        into = stats._into
        row = self._hops[src]
        total_bytes = payload_bytes + HEADER_BYTES
        bandwidth = self.link_bytes_per_cycle
        wire = self._wire_cycles(total_bytes)
        # Egress serialization: a node injects one packet at a time.
        if bandwidth:
            free_at = self._egress_free_at[src]
            if free_at < now:
                free_at = now
            self._egress_free_at[src] = (
                free_at + (total_bytes + bandwidth - 1) // bandwidth
            )
            egress = free_at - now
        else:
            egress = 0
        link_latency = self.link_latency
        contention = self.link_contention
        jitter = self.jitter
        getrandbits = self._getrandbits
        bits = self._jitter_bits
        injector = self.fault_injector
        deliver = self._deliver
        first = True
        for dst in dsts:
            if not 0 <= dst < n_nodes:
                self._check(dst)
            packet = Packet(src, dst, payload, payload_bytes, traffic_class,
                            now, 0, stats.packets + 1)
            stats.packets = packet.packet_id
            hops = row[dst]
            if contention and src != dst:
                delay = egress + self._contended_transit(
                    src, dst, total_bytes, egress
                )
            elif hops == 0:
                delay = egress + self.local_latency
            else:
                delay = egress + hops * link_latency + wire
            if jitter:
                draw = getrandbits(bits)
                while draw > jitter:
                    draw = getrandbits(bits)
                delay += draw
            packet.deliver_time = now + delay
            if first:
                by_class[_CLASS_INDEX[traffic_class]] += payload_bytes
                by_class[_OVERHEAD] += HEADER_BYTES
                into[dst] += total_bytes
                stats._out[src] += total_bytes
                first = False
                egress = 0
            else:
                by_class[_OVERHEAD] += 1
                into[dst] += 1
            if injector is None:
                engine.schedule_call(delay, deliver, packet)
            else:
                injector.dispatch(engine, deliver, packet, delay)
        return packet

    def _deliver(self, packet: Packet) -> None:
        handler = self._handlers[packet.dst]
        if handler is None:
            raise RuntimeError(f"packet to unregistered node {packet.dst}: {packet!r}")
        handler(packet)
