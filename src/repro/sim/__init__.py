"""Discrete-event simulation kernel.

A minimal, dependency-free event simulator sized for architectural
simulation: an :class:`~repro.sim.engine.Engine` owns the event queue
(a heap for future cycles, a FIFO for the current one) and the clock
(measured in CPU cycles) and runs plain callbacks; coroutine
:class:`~repro.sim.process.Process` objects model the processors.
Directory controllers need no coroutine: each is a callback-driven
occupancy server scheduled directly on the engine.

Everything in :mod:`repro` runs on this kernel, so its semantics are the
semantics of the whole simulator:

* Time is an integer cycle count; events scheduled for the same cycle fire
  in FIFO scheduling order (deterministic).
* A process is a Python generator (``yield from`` composes
  sub-routines).  ``yield n`` (an ``int``) resumes it ``n`` cycles later;
  ``yield PARK`` suspends it until some callback calls
  :meth:`Process.resume`.  Every wait on another agent — a load reply, a
  TID, a commit acknowledgement, the workload barrier, the token
  baseline's commit token — is a park and a resume.
* A resume schedules the process at the *current* cycle; there is no
  zero-delay cascade limit, but cycles never go backwards.
"""

from repro.sim.engine import Engine
from repro.sim.process import PARK, Process

__all__ = [
    "Engine",
    "PARK",
    "Process",
]
