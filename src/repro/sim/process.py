"""Generator-based processes running on the engine."""

from __future__ import annotations

from typing import Any, Generator, Union

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event


class _Park:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PARK"


#: Yielded by a process that another agent wakes with :meth:`Process.resume`.
PARK = _Park()

ProcessGenerator = Generator[Union[Event, int, _Park, None], Any, Any]


class Process(Event):
    """A simulated agent: a generator that yields what it waits for.

    The process itself is an :class:`Event` that fires when the generator
    returns, with the generator's return value — so processes can wait on
    each other (fork/join) just by yielding a child process.

    A generator may yield:

    * an :class:`Event` — the process resumes when it fires, and the
      ``yield`` expression evaluates to the event's value;
    * a non-negative ``int`` ``n`` — resume ``n`` cycles from now (one
      engine event, no :class:`Event` allocated); ``yield 0`` resumes
      later in the same cycle;
    * ``None`` — resume later in the same cycle (a cooperative yield);
    * :data:`PARK` — stay suspended until some callback calls
      :meth:`resume`, whose value the ``yield`` evaluates to.

    Exceptions raised inside the generator propagate out of the engine's
    ``run()`` — architectural bugs should crash the simulation loudly, not
    be swallowed.
    """

    __slots__ = ("generator", "name", "_parked")

    def __init__(
        self,
        engine: Engine,
        generator: ProcessGenerator,
        name: str = "process",
    ) -> None:
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        self.generator = generator
        self.name = name
        self._parked = False
        engine.schedule_call(0, self._step, None)

    def _step(self, value: Any) -> None:
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.fire(stop.value)
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
        elif target is None:
            self.engine.schedule_call(0, self._step, None)
        elif isinstance(target, Event):
            target.subscribe(self._step)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances, non-negative ints, PARK or None"
            )

    def resume(self, value: Any = None) -> None:
        """Wake a process parked with ``yield PARK``: the generator
        continues later in the current cycle with ``value``, in the same
        order as waking it through a fired :class:`Event`.

        Raises :class:`SimulationError` unless the process is parked and
        not yet woken: a wake-up that lands while it sleeps, waits on an
        event or was already resumed would push it past that wait."""
        if not self._parked:
            raise SimulationError(
                f"process {self.name!r} resumed while not parked"
            )
        self._parked = False
        self.engine.schedule_call(0, self._step, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.fired else "running"
        return f"Process({self.name!r}, {state})"
