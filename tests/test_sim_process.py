"""Unit tests for generator processes: ``yield n`` sleeps, ``yield PARK``
waits for :meth:`Process.resume`."""

import pytest

from repro.sim import PARK, Engine, Process
from repro.sim.engine import SimulationError


def test_process_runs_to_completion():
    engine = Engine()
    log = []

    def worker():
        yield 5
        log.append(engine.now)

    Process(engine, worker())
    engine.run()
    assert log == [5]
    assert engine.now == 5


def test_yield_zero_is_cooperative_yield():
    engine = Engine()
    order = []

    def a():
        order.append("a1")
        yield 0
        order.append("a2")

    def b():
        order.append("b1")
        yield 0
        order.append("b2")

    Process(engine, a())
    Process(engine, b())
    engine.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert engine.now == 0


def test_yield_from_subroutine_composes():
    engine = Engine()

    def delay_twice(n):
        yield n
        yield n
        return n * 2

    totals = []

    def main():
        total = yield from delay_twice(4)
        totals.append((engine.now, total))

    Process(engine, main())
    engine.run()
    assert totals == [(8, 8)]


def test_non_generator_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        Process(engine, lambda: None)  # type: ignore[arg-type]


def test_bad_yield_type_raises():
    # Ints are sleeps and PARK parks; anything else is illegal.
    for bad in ("x", 1.5, True, None):
        engine = Engine()

        def worker():
            yield bad

        Process(engine, worker())
        with pytest.raises(SimulationError):
            engine.run()


def test_yield_int_resumes_exactly_that_many_cycles_later():
    engine = Engine()
    woke = []

    def worker():
        yield 5
        woke.append(engine.now)
        yield 0
        woke.append(engine.now)

    Process(engine, worker())
    engine.run()
    assert woke == [5, 5]
    # One engine event per step: the start and each sleep.
    assert engine.events_executed == 3


def test_yield_negative_int_raises():
    engine = Engine()

    def worker():
        yield -1

    Process(engine, worker())
    with pytest.raises(SimulationError, match="negative"):
        engine.run()


def test_parked_process_resumes_with_value():
    engine = Engine()
    log = []

    def worker():
        value = yield PARK
        log.append((engine.now, value))

    proc = Process(engine, worker())
    engine.run()
    assert log == []
    engine.schedule_call(12, proc.resume, "go")
    engine.run()
    assert log == [(12, "go")]


def test_resumed_processes_run_in_resume_order():
    # The barrier and the commit token rely on this: a batch of
    # wake-ups runs in the order the resumes were made.
    engine = Engine()
    woken = []

    def waiter(tag):
        yield PARK
        woken.append(tag)

    x = Process(engine, waiter("x"))
    y = Process(engine, waiter("y"))
    engine.run()

    def wake_y_then_x():
        y.resume()
        x.resume()

    engine.schedule_call(1, wake_y_then_x)
    engine.run()
    assert woken == ["y", "x"]


@pytest.mark.parametrize("wait", ["sleep", "done"])
def test_resume_of_a_process_that_is_not_parked_raises(wait):
    engine = Engine()

    def worker():
        if wait == "sleep":
            yield 10

    proc = Process(engine, worker())
    engine.schedule_call(3, proc.resume)
    with pytest.raises(SimulationError, match="not parked"):
        engine.run()


def test_second_resume_before_the_process_runs_raises():
    engine = Engine()
    log = []

    def worker():
        log.append((yield PARK))

    proc = Process(engine, worker())
    engine.run()
    proc.resume("first")
    with pytest.raises(SimulationError, match="not parked"):
        proc.resume("second")
    engine.run()
    assert log == ["first"]


def test_exception_in_process_propagates():
    engine = Engine()

    def worker():
        yield 1
        raise ValueError("architectural bug")

    Process(engine, worker())
    with pytest.raises(ValueError, match="architectural bug"):
        engine.run()
