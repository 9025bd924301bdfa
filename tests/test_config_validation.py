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
    dict(granularity="byte"),
    dict(commit_backend="bus"),
    dict(link_latency=-1),
    dict(line_size=-32),
    dict(word_size=-4),
    dict(network_jitter=-1),
    dict(line_size=0),
    dict(word_size=0),
    dict(line_size=30),
    dict(retention_threshold=0),
    dict(sharer_group_size=0),
    dict(watchdog_interval=-1),
    dict(watchdog_interval=0),
    dict(sharer_group_size=-2),
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
