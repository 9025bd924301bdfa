"""Interconnection network: 2-D mesh topology and message transport.

Models the paper's Table 2 interconnect: a 2-D grid with a configurable
per-link (per-hop) latency — the knob swept by Figure 8 — plus optional
per-node bandwidth serialization and deterministic delivery jitter to
exercise the protocol's unordered-network race handling.  Messages travel
bare: each names its own size and traffic class, which the network counts
so Figure 9 (bytes per instruction by class) can be regenerated.
"""

from repro.network.interconnect import Interconnect, TrafficStats
from repro.network.message import (
    CLASS_COMMIT,
    CLASS_MISS,
    CLASS_OVERHEAD,
    CLASS_WRITEBACK,
)
from repro.network.topology import MeshTopology

__all__ = [
    "CLASS_COMMIT",
    "CLASS_MISS",
    "CLASS_OVERHEAD",
    "CLASS_WRITEBACK",
    "Interconnect",
    "MeshTopology",
    "TrafficStats",
]
