"""Message transport over the mesh with latency, bandwidth and jitter.

The network carries protocol messages bare: ``send`` and ``multicast``
read each message's ``payload_bytes`` and ``traffic_class``, and the
destination node's handler receives the message itself.

Delivery time for a message from ``src`` to ``dst``:

    egress wait (per-node bandwidth serialization)
  + hops(src, dst) * link_latency          (Table 2 / Figure 8 knob)
  + router overhead (ROUTER_LATENCY)
  + serialization  (ceil(total_bytes / LINK_BYTES_PER_CYCLE))
  + jitter          (deterministic pseudo-random, unordered networks only)

A message to its own node takes ``LOCAL_LATENCY`` after its egress wait.

The network is *unordered* by default, as in the paper ("additional
mechanisms are required to accommodate ... its distributed memory and
unordered interconnection network"): two messages between the same pair of
nodes may be delivered out of send order because of jitter.  Protocol
layers must (and do) tolerate this; an ``ordered=True`` mode exists for
differential testing.

Jitter comes from an instance-owned generator, never the module-global
``random`` state: a per-interconnect ``random.Random(seed)`` Mersenne
Twister stream, drawn with an inline ``getrandbits`` rejection loop,
bit-identical to ``randint(0, jitter)`` on the same stream.

``send`` and ``multicast`` are the hot path of every run (a 32-CPU run
sends tens of thousands of messages).  Both go through one loop,
``Interconnect._emit``, which computes hop count, egress, wire time,
jitter and the traffic counters inline.
"""

from __future__ import annotations

from collections import defaultdict
from random import Random
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.network.message import HEADER_BYTES, TRAFFIC_CLASSES
from repro.network.topology import MeshTopology
from repro.sim.engine import Engine

Handler = Callable[[Any], None]

_CLASS_INDEX = {cls: i for i, cls in enumerate(TRAFFIC_CLASSES)}
_OVERHEAD = _CLASS_INDEX["overhead"]

#: Fixed per-message costs of the simulated machine (not knobs): router
#: overhead per remote message, delivery within a node, and link bandwidth
#: in bytes per cycle.
ROUTER_LATENCY = 1
LOCAL_LATENCY = 1
LINK_BYTES_PER_CYCLE = 16


def _flits(total_bytes: int) -> int:
    """Cycles to serialize a ``total_bytes`` packet onto a link."""
    return (total_bytes + LINK_BYTES_PER_CYCLE - 1) // LINK_BYTES_PER_CYCLE


class TrafficStats:
    """Byte counters by class and by receiving node (Figure 9's inputs).

    Counters are fixed-index lists that :class:`Interconnect` bumps on
    the hot path; the dict views the analysis layer reads
    (:attr:`bytes_by_class`, :attr:`bytes_into_node`) are built on demand.
    """

    __slots__ = ("_by_class", "_into", "packets")

    def __init__(self, n_nodes: int = 0) -> None:
        self._by_class: List[int] = [0] * len(TRAFFIC_CLASSES)
        self._into: List[int] = [0] * n_nodes
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
    def total_bytes(self) -> int:
        return sum(self._by_class)


class Interconnect:
    """The machine's 2-D mesh transport."""

    def __init__(
        self,
        engine: Engine,
        n_nodes: int,
        link_latency: int = 3,
        ordered: bool = False,
        jitter: int = 2,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.n_nodes = n_nodes
        self.topology = MeshTopology(n_nodes)
        self.link_latency = link_latency
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
            return LOCAL_LATENCY
        return hops * self.link_latency + ROUTER_LATENCY + _flits(total_bytes)

    # -- sending ----------------------------------------------------------

    def send(self, src: int, dst: int, msg: Any) -> None:
        """Dispatch ``msg``; the destination handler runs at delivery time."""
        self._emit(src, (dst,), msg)

    def multicast(self, src: int, dsts: Iterable[int], msg: Any) -> int:
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
            self._emit(src, dsts, msg)
        return len(dsts)

    def _emit(self, src: int, dsts: Tuple[int, ...], msg: Any) -> None:
        """Inject one packet carrying ``msg`` at ``src`` and deliver a
        copy to each of ``dsts``.

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
        payload_bytes = msg.payload_bytes
        total_bytes = payload_bytes + HEADER_BYTES
        flits = _flits(total_bytes)
        # Wire time past the links: router overhead plus serialization.
        wire = ROUTER_LATENCY + flits
        # Egress serialization: a node injects one packet at a time.
        free_at = self._egress_free_at[src]
        if free_at < now:
            free_at = now
        self._egress_free_at[src] = free_at + flits
        egress = free_at - now
        link_latency = self.link_latency
        jitter = self.jitter
        getrandbits = self._getrandbits
        bits = self._jitter_bits
        injector = self.fault_injector
        deliver = self._deliver
        first = True
        for dst in dsts:
            if not 0 <= dst < n_nodes:
                self._check(dst)
            stats.packets += 1
            hops = row[dst]
            if hops == 0:
                delay = egress + LOCAL_LATENCY
            else:
                delay = egress + hops * link_latency + wire
            if jitter:
                draw = getrandbits(bits)
                while draw > jitter:
                    draw = getrandbits(bits)
                delay += draw
            if first:
                by_class[_CLASS_INDEX[msg.traffic_class]] += payload_bytes
                by_class[_OVERHEAD] += HEADER_BYTES
                into[dst] += total_bytes
                first = False
                egress = 0
            else:
                by_class[_OVERHEAD] += 1
                into[dst] += 1
            if injector is None:
                engine.schedule_call(delay, deliver, (dst, msg))
            else:
                injector.dispatch(engine, deliver, src, dst, msg, delay)

    def _deliver(self, item: Tuple[int, Any]) -> None:
        dst, msg = item
        handler = self._handlers[dst]
        if handler is None:
            raise RuntimeError(f"message to unregistered node {dst}: {msg!r}")
        handler(msg)
