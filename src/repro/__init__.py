"""repro: a reproduction of "A Scalable, Non-blocking Approach to
Transactional Memory" (Chafi et al., HPCA 2007) — Scalable TCC.

Public API quickstart::

    from repro import ScalableTCCSystem, SystemConfig, app_workload

    config = SystemConfig(n_processors=16)
    system = ScalableTCCSystem(config)
    result = system.run(app_workload("barnes", scale=0.25))
    print(result.summary().breakdown_fractions())

See README.md for the architecture overview and DESIGN.md for the
paper-to-module mapping.
"""

from repro.core import ScalableTCCSystem, SimulationResult, SystemConfig, TidVendor
from repro.faults import FaultPlan, NodeFault, PacketFault, WatchdogStall
from repro.workloads import (
    APP_PROFILES,
    SyntheticWorkload,
    Transaction,
    Workload,
    WorkloadProfile,
    app_workload,
)

__version__ = "1.0.0"

__all__ = [
    "APP_PROFILES",
    "FaultPlan",
    "NodeFault",
    "PacketFault",
    "ScalableTCCSystem",
    "SimulationResult",
    "SyntheticWorkload",
    "SystemConfig",
    "TidVendor",
    "Transaction",
    "WatchdogStall",
    "Workload",
    "WorkloadProfile",
    "app_workload",
    "__version__",
]
