"""Discrete-event simulation kernel.

A minimal, dependency-free event simulator sized for architectural
simulation: an :class:`~repro.sim.engine.Engine` owns the event queue
and the clock (measured in CPU cycles) and runs plain callbacks;
coroutine :class:`~repro.sim.process.Process` objects model the
processors, which sleep for a number of cycles, wait on
:class:`Event` objects, or park until a message handler resumes them;
:mod:`repro.sim.resources` provides the two synchronization primitives
the model needs (the token baseline's FIFO :class:`Resource` and the
workloads' :class:`Barrier`).  Directory controllers need no coroutine:
each is a callback-driven occupancy server scheduled directly on the
engine.

Everything in :mod:`repro` runs on this kernel, so its semantics are the
semantics of the whole simulator:

* Time is an integer cycle count; events scheduled for the same cycle fire
  in FIFO scheduling order (deterministic).
* A process is a Python generator (``yield from`` composes
  sub-routines).  ``yield n`` (an ``int``) resumes it ``n`` cycles later;
  ``yield event`` resumes it when the event fires, with the event's
  value; ``yield PARK`` suspends it until :meth:`Process.resume`.
* Firing an event schedules its callbacks at the *current* cycle; there is
  no zero-delay cascade limit, but cycles never go backwards.
"""

from repro.sim.engine import Engine
from repro.sim.events import Event, Timeout
from repro.sim.process import PARK, Process
from repro.sim.resources import Barrier, Resource

__all__ = [
    "Barrier",
    "Engine",
    "Event",
    "PARK",
    "Process",
    "Resource",
    "Timeout",
]
