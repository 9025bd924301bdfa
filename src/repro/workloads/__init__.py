"""Workloads: transactions, generators, and the paper's application suite.

The paper runs real binaries (SPEC CPU2000, SPLASH-2, SPECjbb2000,
CEARCH) converted to continuous transactions.  Those binaries are not
reproducible here, so this package provides the substitution described in
DESIGN.md: parameterized synthetic workloads whose per-transaction
characteristics (Table 3: transaction size, read-/write-set size,
operations per word written, directories touched, sharing and conflict
behaviour, barrier structure) are matched to each application.
"""

from repro.workloads.base import (
    BARRIER,
    BarrierPoint,
    Transaction,
    TransactionSchedule,
    Workload,
)
from repro.workloads.synthetic import SyntheticWorkload, WorkloadProfile
from repro.workloads.apps import APP_PROFILES, app_workload
from repro.workloads.micro import (
    CounterWorkload,
    FalseSharingWorkload,
    PrivateWorkload,
    ProducerConsumerWorkload,
    StarvationWorkload,
)
from repro.workloads.tm_patterns import (
    ListSetWorkload,
    QueueWorkload,
)

__all__ = [
    "ListSetWorkload",
    "QueueWorkload",
    "APP_PROFILES",
    "BARRIER",
    "BarrierPoint",
    "CounterWorkload",
    "FalseSharingWorkload",
    "PrivateWorkload",
    "ProducerConsumerWorkload",
    "StarvationWorkload",
    "SyntheticWorkload",
    "Transaction",
    "TransactionSchedule",
    "Workload",
    "WorkloadProfile",
    "app_workload",
]
