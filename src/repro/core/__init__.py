"""Scalable TCC core: the paper's primary contribution.

This package wires the substrates (simulation kernel, network, caches,
directories) into the Scalable TCC machine and exposes the public API:

* :class:`~repro.core.config.SystemConfig` — Table 2 architecture knobs;
* :class:`~repro.core.system.ScalableTCCSystem` — builds the nodes and
  runs a workload to completion;
* :class:`~repro.core.result.SimulationResult` — what a run produced,
  and ``result.summary()``, every number the paper's artefacts read;
* :class:`~repro.core.tid.TidVendor` — the global gap-free TID vendor;
* :mod:`~repro.core.messages` — the coherence message set (Table 1).
"""

from repro.core.config import SystemConfig
from repro.core.result import SimulationResult
from repro.core.system import ScalableTCCSystem
from repro.core.tid import TidVendor

__all__ = [
    "ScalableTCCSystem",
    "SimulationResult",
    "SystemConfig",
    "TidVendor",
]
