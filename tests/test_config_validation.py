"""Construction-time validation of SystemConfig (robustness satellite).

A bad knob must fail loudly at construction with a clear message, not
surface later as a nonsense simulation (negative latencies silently
reordering events, probabilities above 1 always firing, ...).
"""

import pytest

from repro.core.config import SystemConfig
from repro.faults import FaultPlan, PacketFault


@pytest.mark.parametrize("kwargs", [
    dict(n_processors=0),
    dict(n_processors=-4),
    dict(l1_latency=-1),
    dict(l2_latency=-1),
    dict(link_latency=-1),
    dict(directory_latency=-1),
    dict(memory_latency=-1),
    dict(network_jitter=-1),
    dict(line_size=0),
    dict(word_size=0),
    dict(l1_size=0),
    dict(l1_ways=0),
    dict(l2_size=0),
    dict(l2_ways=0),
    dict(watchdog_interval=0),
    dict(watchdog_stall_checks=0),
    dict(fault_plan="lots of drops please"),
    dict(fault_plan=FaultPlan(), commit_backend="token"),
])
def test_invalid_configs_rejected_at_construction(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_fault_probability_validated_in_the_plan():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FaultPlan(packet_faults=(PacketFault("drop", 1.7),))


def test_zero_latencies_are_legal():
    # zero is a meaningful ablation value; only negatives are nonsense
    config = SystemConfig(link_latency=0, network_jitter=0)
    assert config.link_latency == 0


def test_hardening_flags_resolve():
    assert not SystemConfig().protocol_hardened
    assert SystemConfig(fault_plan=FaultPlan()).protocol_hardened
