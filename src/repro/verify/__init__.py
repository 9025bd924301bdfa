"""Correctness verification: serializability judged by the oracle.

The simulator models real data values end to end precisely so this
package can check, after every run, that the machine behaved like *some*
serial execution — the definition of transactional correctness.  The
serial execution is the independent :mod:`repro.oracle`'s; this package
only diffs the run against it (:func:`judge`).
"""

from repro.verify.invariants import InvariantViolation, check_system_invariants
from repro.verify.serializability import (
    CommitRecord,
    Mismatch,
    ReplayMismatch,
    SerializabilityChecker,
    judge,
)

__all__ = [
    "CommitRecord",
    "InvariantViolation",
    "Mismatch",
    "ReplayMismatch",
    "SerializabilityChecker",
    "check_system_invariants",
    "judge",
]
