"""Independent reference TM machine for differential conformance testing.

See :mod:`repro.oracle.machine` for the machine itself and
:mod:`repro.verify.serializability` for the judge that diffs every
verified run against it, and :mod:`repro.conform` for the random-program
harness.
"""

from repro.oracle.machine import (
    CommitWitness,
    OracleCommit,
    OracleResult,
    OracleTx,
    OracleViolation,
    ReferenceTM,
    program_from_schedules,
)

__all__ = [
    "CommitWitness",
    "OracleCommit",
    "OracleResult",
    "OracleTx",
    "OracleViolation",
    "ReferenceTM",
    "program_from_schedules",
]
