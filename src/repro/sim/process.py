"""Generator-based processes running on the engine."""

from __future__ import annotations

from typing import Any, Generator, Union

from repro.sim.engine import Engine, SimulationError


class _Park:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PARK"


#: Yielded by a process that another agent wakes with :meth:`Process.resume`.
PARK = _Park()

ProcessGenerator = Generator[Union[int, _Park], Any, Any]


class Process:
    """A simulated agent: a generator that yields how it waits.

    A generator may yield:

    * a non-negative ``int`` ``n`` — resume ``n`` cycles from now (one
      engine event); ``yield 0`` resumes later in the same cycle, after
      the work already queued for it;
    * :data:`PARK` — stay suspended until some callback calls
      :meth:`resume`, whose value the ``yield`` evaluates to.

    Every wait in the simulator is one of these two: a processor sleeps
    off compute with ``yield n`` and parks on a load, a TID, a commit
    acknowledgement, the workload barrier or the commit token.

    Exceptions raised inside the generator propagate out of the engine's
    ``run()`` — architectural bugs should crash the simulation loudly, not
    be swallowed.
    """

    __slots__ = ("engine", "generator", "name", "_parked")

    def __init__(
        self,
        engine: Engine,
        generator: ProcessGenerator,
        name: str = "process",
    ) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        self.engine = engine
        self.generator = generator
        self.name = name
        self._parked = False
        engine.schedule_call(0, self._step, None)

    def _step(self, value: Any) -> None:
        try:
            target = self.generator.send(value)
        except StopIteration:
            return
        # ``type() is int`` keeps ``True``/``False`` illegal.
        if type(target) is int:
            if target < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded {target}: "
                    "cannot sleep a negative number of cycles"
                )
            self.engine.schedule_call(target, self._step, None)
        elif target is PARK:
            self._parked = True
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield non-negative ints or PARK"
            )

    def resume(self, value: Any = None) -> None:
        """Wake a process parked with ``yield PARK``: the generator
        continues later in the current cycle with ``value``, after the
        work already queued for it.

        Raises :class:`SimulationError` unless the process is parked and
        not yet woken: a wake-up that lands while it sleeps or was
        already resumed would push it past that wait."""
        if not self._parked:
            raise SimulationError(
                f"process {self.name!r} resumed while not parked"
            )
        self._parked = False
        self.engine.schedule_call(0, self._step, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "parked" if self._parked else "running"
        return f"Process({self.name!r}, {state})"
