"""The discrete-event engine: clock plus time-ordered callback queue.

The queue is two structures behind one deterministic ordering:

* a plain FIFO for zero-delay work (mostly process wake-ups), where a
  deque append/popleft is far cheaper than a heap push/pop;
* a heapq of ``(cycle, seq, fn, arg)`` for every positive delay.

Execution order is exactly the classic ``(cycle, seq)`` order of a
single heap.  The proof rests on two invariants: the global ``seq``
counter is monotone, and the clock only advances when the FIFO is
empty.  Hence every heap entry for cycle ``T`` was created before the
clock reached ``T`` and carries a smaller ``seq`` than any FIFO entry
(which can only be created *at* ``T``); and a heap entry for ``T`` can
never be created during ``T`` because a positive delay lands strictly
after ``T``.  So running all heap entries for ``T`` in ``seq`` order,
then draining the FIFO in append order, is the single-heap order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised for kernel misuse: a negative delay, a re-entrant ``run()``,
    a process that yields anything but a non-negative ``int`` or
    ``PARK``, or a ``resume`` of a process that is not parked."""


class _NoValue:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<no value>"


_heappush = heapq.heappush

#: Sentinel meaning "call the function with no argument".  Lets hot
#: paths schedule bound methods plus one argument without allocating a
#: closure per event.
_NO_VALUE = _NoValue()


class Engine:
    """Event queue and simulated clock.

    The engine is deliberately tiny: it knows nothing about processes or
    hardware, it only runs ``(cycle, seq, callback)`` entries in
    deterministic order.  Higher layers (processes, directory
    controllers, retry timers, the interconnect) build on
    :meth:`schedule_call`.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: list = []
        self._fifo: deque = deque()
        self._seq: int = 0
        self._running = False
        # Diagnostic counter; cheap and useful for performance reports.
        self.events_executed: int = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def schedule_call(
        self, delay: int, fn: Callable, arg: Any = _NO_VALUE
    ) -> None:
        """Run ``fn(arg)`` (or ``fn()`` when ``arg`` is omitted) ``delay``
        cycles from now, without a per-event closure.

        ``delay`` must be a non-negative integer; a zero delay runs the
        call later in the current cycle, after already-queued work for
        this cycle.
        """
        if delay >= 1:
            self._seq += 1
            _heappush(self._heap, (self._now + int(delay), self._seq, fn, arg))
        elif delay >= 0:
            self._seq += 1
            self._fifo.append((fn, arg))
        else:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")

    def schedule_many(
        self, delay: int, fns: Iterable[Callable], arg: Any = _NO_VALUE
    ) -> None:
        """Schedule a batch of callbacks at the same delay, preserving
        iteration order; each receives ``arg`` (or nothing)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        delay = int(delay)
        if delay == 0:
            append = self._fifo.append
            count = 0
            for fn in fns:
                append((fn, arg))
                count += 1
            self._seq += count
            return
        when = self._now + delay
        seq = self._seq
        heap = self._heap
        for fn in fns:
            seq += 1
            heapq.heappush(heap, (when, seq, fn, arg))
        self._seq = seq

    def run(self, until: Optional[int] = None) -> int:
        """Execute queued events; return the final simulation time.

        Runs until the queue drains (the clock stays at the last executed
        event) or until the clock would pass ``until`` (events at exactly
        ``until`` still execute, and the clock parks at ``until``).
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        executed = 0
        fifo = self._fifo
        heap = self._heap
        pop_fifo = fifo.popleft
        pop_heap = heapq.heappop
        no_value = _NO_VALUE
        try:
            if until is not None and self._now > until:
                # Pathological but defined: with pending events the clock
                # parks (backward) at ``until`` and nothing executes.
                if fifo or heap:
                    self._now = until
                return self._now
            # Zero-delay work queued since the last run belongs to the
            # current cycle and precedes any clock advance.
            while fifo:
                fn, arg = pop_fifo()
                executed += 1
                if arg is no_value:
                    fn()
                else:
                    fn(arg)
            while heap:
                cycle = heap[0][0]
                if until is not None and cycle > until:
                    self._now = until
                    break
                self._now = cycle
                while heap and heap[0][0] == cycle:
                    _, _, fn, arg = pop_heap(heap)
                    executed += 1
                    if arg is no_value:
                        fn()
                    else:
                        fn(arg)
                # Zero-delay work spawned during this cycle runs after
                # every previously queued entry for the cycle (it carries
                # a larger seq by construction).
                while fifo:
                    fn, arg = pop_fifo()
                    executed += 1
                    if arg is no_value:
                        fn()
                    else:
                        fn(arg)
        finally:
            self.events_executed += executed
            self._running = False
        return self._now

    def peek(self) -> Optional[int]:
        """Time of the next queued event, or ``None`` if the queue is empty."""
        if self._fifo:
            return self._now
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pending = len(self._fifo) + len(self._heap)
        return f"Engine(now={self._now}, pending={pending})"
