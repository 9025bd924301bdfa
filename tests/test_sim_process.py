"""Unit tests for generator processes."""

import pytest

from repro.sim import PARK, Engine, Event, Process, Timeout
from repro.sim.engine import SimulationError


def test_process_runs_and_returns_value():
    engine = Engine()

    def worker():
        yield Timeout(engine, 5)
        return "done"

    proc = Process(engine, worker())
    engine.run()
    assert proc.fired
    assert proc.value == "done"
    assert engine.now == 5


def test_yield_expression_receives_event_value():
    engine = Engine()
    seen = []

    def worker():
        got = yield Timeout(engine, 2, value=42)
        seen.append(got)

    Process(engine, worker())
    engine.run()
    assert seen == [42]


def test_yield_none_is_cooperative_yield():
    engine = Engine()
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    Process(engine, a())
    Process(engine, b())
    engine.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert engine.now == 0


def test_processes_can_join_each_other():
    engine = Engine()

    def child():
        yield Timeout(engine, 7)
        return "child-result"

    results = []

    def parent():
        value = yield Process(engine, child(), name="child")
        results.append((engine.now, value))

    Process(engine, parent(), name="parent")
    engine.run()
    assert results == [(7, "child-result")]


def test_yield_from_subroutine_composes():
    engine = Engine()

    def delay_twice(n):
        yield Timeout(engine, n)
        yield Timeout(engine, n)
        return n * 2

    totals = []

    def main():
        total = yield from delay_twice(4)
        totals.append((engine.now, total))

    Process(engine, main())
    engine.run()
    assert totals == [(8, 8)]


def test_process_waits_on_plain_event():
    engine = Engine()
    gate = Event(engine)
    log = []

    def waiter():
        value = yield gate
        log.append((engine.now, value))

    Process(engine, waiter())
    engine.schedule(30, lambda: gate.fire("open"))
    engine.run()
    assert log == [(30, "open")]


def test_two_processes_waiting_on_same_event():
    engine = Engine()
    gate = Event(engine)
    woken = []

    def waiter(tag):
        yield gate
        woken.append(tag)

    Process(engine, waiter("x"))
    Process(engine, waiter("y"))
    engine.schedule(1, gate.fire)
    engine.run()
    assert sorted(woken) == ["x", "y"]


def test_non_generator_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        Process(engine, lambda: None)  # type: ignore[arg-type]


def test_bad_yield_type_raises():
    # Ints are sleeps; strings, floats and bools stay illegal.
    for bad in ("x", 1.5, True):
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
    # One engine event per sleep: no Event is fired in between.
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
    assert log == [] and not proc.fired
    engine.schedule(12, lambda: proc.resume("go"))
    engine.run()
    assert log == [(12, "go")]
    assert proc.fired


@pytest.mark.parametrize("wait", ["sleep", "event", "done"])
def test_resume_of_a_process_that_is_not_parked_raises(wait):
    engine = Engine()
    gate = Event(engine)

    def worker():
        if wait == "sleep":
            yield 10
        elif wait == "event":
            yield gate

    proc = Process(engine, worker())
    engine.schedule(3, proc.resume)
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
        yield Timeout(engine, 1)
        raise ValueError("architectural bug")

    Process(engine, worker())
    with pytest.raises(ValueError, match="architectural bug"):
        engine.run()
