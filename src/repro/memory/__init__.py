"""Memory system: address model, main memory, speculative caches.

This package models the node-local memory system of the simulated DSM
machine (Figure 1 of the paper): per-node physical memory fronted by a
directory, and per-processor private cache hierarchies whose lines carry
the speculatively-modified (SM) and speculatively-read (SR) bits that TCC
uses for lazy versioning and conflict detection.
"""

from repro.memory.address import AddressMap, FirstTouchMapping
from repro.memory.cache import CacheLine, SpeculativeCache
from repro.memory.hierarchy import AccessResult, PrivateHierarchy
from repro.memory.mainmem import MainMemory

__all__ = [
    "AccessResult",
    "AddressMap",
    "CacheLine",
    "FirstTouchMapping",
    "MainMemory",
    "PrivateHierarchy",
    "SpeculativeCache",
]
