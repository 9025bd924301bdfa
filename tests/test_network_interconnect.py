"""Unit tests for the interconnect transport."""

import pytest

from repro.network import CLASS_COMMIT, CLASS_MISS, Interconnect
from repro.network.interconnect import (
    LINK_BYTES_PER_CYCLE, LOCAL_LATENCY, ROUTER_LATENCY,
)
from repro.network.message import HEADER_BYTES
from repro.sim import Engine


class Msg:
    """What the network reads off a message: its size and class."""

    __slots__ = ("tag", "payload_bytes", "traffic_class")

    def __init__(self, tag=None, payload_bytes=0, traffic_class=CLASS_COMMIT):
        self.tag = tag
        self.payload_bytes = payload_bytes
        self.traffic_class = traffic_class


def make_net(n=4, **kwargs):
    engine = Engine()
    kwargs.setdefault("ordered", True)
    net = Interconnect(engine, n, **kwargs)
    return engine, net


def test_delivery_invokes_registered_handler():
    engine, net = make_net()
    received = []
    net.register(1, lambda msg: received.append((engine.now, msg)))
    hello = Msg("hello")
    net.send(0, 1, hello)
    engine.run()
    assert len(received) == 1
    assert received[0][1] is hello


def test_latency_scales_with_hops():
    engine, net = make_net(16, link_latency=5)
    # 4x4 mesh: 0 -> 15 is 6 hops; an 8-byte packet is one flit
    t_far = net.transit_cycles(0, 15, 8)
    t_near = net.transit_cycles(0, 1, 8)
    assert t_far == 6 * 5 + ROUTER_LATENCY + 1
    assert t_near == 5 + ROUTER_LATENCY + 1


def test_local_delivery_uses_local_latency():
    engine, net = make_net(4)
    assert net.transit_cycles(2, 2, 100) == LOCAL_LATENCY


def test_serialization_adds_size_cycles():
    assert LINK_BYTES_PER_CYCLE == 16
    engine, net = make_net(4, link_latency=3)
    small = net.transit_cycles(0, 1, 16)
    large = net.transit_cycles(0, 1, 64)
    assert large == small + 3  # 4 flits vs 1 flit


def test_unregistered_destination_raises():
    engine, net = make_net()
    net.send(0, 3, Msg())
    with pytest.raises(RuntimeError):
        engine.run()


def test_duplicate_registration_rejected():
    _, net = make_net()
    net.register(0, lambda msg: None)
    with pytest.raises(ValueError):
        net.register(0, lambda msg: None)


def test_traffic_accounting_by_class():
    engine, net = make_net()
    net.register(1, lambda msg: None)
    net.send(0, 1, Msg(None, 32, CLASS_MISS))
    net.send(0, 1, Msg(None, 8, CLASS_COMMIT))
    engine.run()
    assert net.stats.bytes_by_class["miss"] == 32
    assert net.stats.bytes_by_class["commit"] == 8
    assert net.stats.bytes_by_class["overhead"] == 2 * HEADER_BYTES
    assert net.stats.total_bytes == 40 + 2 * HEADER_BYTES
    assert net.stats.packets == 2


def test_per_node_byte_counters():
    engine, net = make_net()
    net.register(2, lambda msg: None)
    net.send(0, 2, Msg(None, 8, CLASS_MISS))
    engine.run()
    assert net.stats.bytes_into_node[2] == 8 + HEADER_BYTES
    assert net.stats.bytes_into_node[0] == 0


def test_multicast_charged_once_plus_route_bytes():
    engine, net = make_net()
    for node in (1, 2, 3):
        net.register(node, lambda msg: None)
    net.multicast(0, [1, 2, 3], Msg("skip", 4))
    engine.run()
    # one full packet (4B payload + header) + 2 replica route bytes
    assert net.stats.bytes_by_class["commit"] == 4
    assert net.stats.bytes_by_class["overhead"] == HEADER_BYTES + 2
    assert net.stats.packets == 3


def test_multicast_sends_one_packet_per_destination():
    engine, net = make_net()
    hits = []
    for node in (1, 2, 3):
        net.register(node, lambda msg, n=node: hits.append(n))
    count = net.multicast(0, [1, 2, 3], Msg("skip", 4))
    engine.run()
    assert count == 3
    assert sorted(hits) == [1, 2, 3]


def test_ordered_network_preserves_fifo_between_pair():
    engine, net = make_net(4)
    order = []
    net.register(1, lambda msg: order.append(msg.tag))
    for i in range(10):
        net.send(0, 1, Msg(i, 4))
    engine.run()
    assert order == list(range(10))


def test_unordered_network_can_reorder():
    engine = Engine()
    net = Interconnect(engine, 4, ordered=False, jitter=5, seed=7)
    order = []
    net.register(1, lambda msg: order.append(msg.tag))
    for i in range(50):
        net.send(0, 1, Msg(i, 4))
    engine.run()
    assert sorted(order) == list(range(50))
    assert order != list(range(50))  # jitter must produce some reordering


def test_jitter_disabled_when_ordered():
    engine = Engine()
    net = Interconnect(engine, 4, ordered=True, jitter=10)
    assert net.jitter == 0


def test_egress_bandwidth_serializes_departures():
    engine = Engine()
    net = Interconnect(engine, 4, ordered=True, link_latency=1)
    times = []
    net.register(1, lambda msg: times.append(engine.now))
    # Three 120-byte payloads (128B total = 8 inject cycles each) back to back.
    for _ in range(3):
        net.send(0, 1, Msg(None, 128 - HEADER_BYTES, CLASS_MISS))
    engine.run()
    assert times[1] - times[0] == 8
    assert times[2] - times[1] == 8


def _delivery_order(seed=7, sends=50):
    engine = Engine()
    net = Interconnect(engine, 4, ordered=False, jitter=5, seed=seed)
    order = []
    net.register(1, lambda msg: order.append(msg.tag))
    for i in range(sends):
        net.send(0, 1, Msg(i, 4))
    engine.run()
    return order


def test_rng_is_instance_owned_not_global():
    import random as global_random

    global_random.seed(999)
    expected = [global_random.random() for _ in range(5)]
    global_random.seed(999)
    # Constructing and exercising an interconnect must not consume from
    # (or reseed) the module-level random stream.
    order_a = _delivery_order()
    assert [global_random.random() for _ in range(5)] == expected
    # Same seed, fresh instance: identical draw sequence.
    assert _delivery_order() == order_a


def test_ordered_mode_bypasses_jitter_draws():
    engine = Engine()
    net = Interconnect(engine, 4, ordered=True, jitter=10, seed=3)
    assert net.jitter == 0
    order = []
    net.register(1, lambda msg: order.append(msg.tag))
    for i in range(20):
        net.send(0, 1, Msg(i, 4))
    engine.run()
    assert order == list(range(20))
    # No randomness was consumed from the instance RNG.
    assert net._rng.random() == type(net._rng)(3).random()


def test_jitter_draws_equal_randint_on_the_same_stream():
    import random

    for jitter in (1, 2, 5, 8):
        engine = Engine()
        net = Interconnect(engine, 4, ordered=False, jitter=jitter, seed=11,
                           link_latency=3)
        arrivals = {}
        net.register(1, lambda msg: arrivals.setdefault(msg.tag, engine.now))
        for i in range(200):
            net.send(0, 1, Msg(i, 4))
        engine.run()
        base = net.transit_cycles(0, 1, 4 + HEADER_BYTES)
        stream = random.Random(11)
        # Every message was sent at cycle 0; each 12-byte packet is one
        # flit, so message i waits i cycles for the egress port.
        assert [arrivals[i] - i - base for i in range(200)] == [
            stream.randint(0, jitter) for _ in range(200)
        ]


def test_multicast_deliveries_and_bytes_match_the_wire_model():
    import random

    src, dsts = 5, [3, 9, 0, 5, 15, 9]
    engine = Engine()
    net = Interconnect(engine, 16, ordered=False, jitter=3, seed=5)
    delivered = []
    for node in range(16):
        net.register(node, lambda msg, n=node: delivered.append(
            (engine.now, n, msg.tag)))
    # Busy the source's egress so the first copy queues behind it.
    before_bytes = 40 + HEADER_BYTES
    net.send(src, 1, Msg("before", 40, CLASS_MISS))
    assert net.multicast(src, iter(dsts), Msg("skip", 4)) == len(dsts)
    engine.run()

    stream = random.Random(5)
    expected = [(net.transit_cycles(src, 1, before_bytes)
                 + stream.randint(0, 3), 1, "before")]
    egress_wait = -(-before_bytes // LINK_BYTES_PER_CYCLE)
    for i, dst in enumerate(dsts):
        wait = egress_wait if i == 0 else 0
        expected.append((wait + net.transit_cycles(src, dst, 4 + HEADER_BYTES)
                         + stream.randint(0, 3), dst, "skip"))
    assert sorted(delivered) == sorted(expected)
    assert net._rng.getstate() == stream.getstate()

    # The first copy is charged in full; each replica one route byte.
    stats = net.stats
    assert stats.packets == 1 + len(dsts)
    assert stats.bytes_by_class[CLASS_MISS] == 40
    assert stats.bytes_by_class[CLASS_COMMIT] == 4
    assert stats.bytes_by_class["overhead"] == 2 * HEADER_BYTES + len(dsts) - 1
    into = {1: before_bytes, dsts[0]: 4 + HEADER_BYTES}
    for dst in dsts[1:]:
        into[dst] = into.get(dst, 0) + 1
    assert dict(stats.bytes_into_node) == into


def test_multicast_to_nobody_sends_nothing():
    engine, net = make_net()
    assert net.multicast(0, [], Msg("skip", 4)) == 0
    assert net.stats.packets == 0


def test_send_to_a_node_outside_the_mesh_raises():
    engine, net = make_net(4)
    with pytest.raises(ValueError):
        net.send(0, 4, Msg())
    with pytest.raises(ValueError):
        net.send(-1, 1, Msg())
    with pytest.raises(ValueError):
        net.multicast(0, [1, -1], Msg())


def test_packet_count_is_per_interconnect():
    engine, net = make_net()
    net.register(1, lambda msg: None)
    net.register(2, lambda msg: None)
    net.send(0, 1, Msg())
    assert net.stats.packets == 1
    net.multicast(0, [1, 2], Msg())
    net.send(0, 2, Msg())
    assert net.stats.packets == 4
    # Another interconnect in the same process counts from 0 again.
    _, other = make_net()
    other.send(0, 1, Msg())
    assert other.stats.packets == 1
    assert net.stats.packets == 4


def test_identical_systems_in_one_process_see_identical_deliveries():
    from repro import ScalableTCCSystem, SystemConfig
    from repro.workloads.micro import CounterWorkload

    def delivery_trace():
        system = ScalableTCCSystem(SystemConfig(n_processors=4, seed=3))
        network = system.network
        deliver = network._deliver
        seen = []

        def recording(item):
            dst, msg = item
            seen.append((system.engine.now, dst, repr(msg)))
            deliver(item)

        network._deliver = recording
        system.run(CounterWorkload(), verify=False)
        assert len(seen) == network.stats.packets
        return seen

    first = delivery_trace()
    assert first
    assert delivery_trace() == first
