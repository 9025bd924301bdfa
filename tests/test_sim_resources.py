"""Unit tests for the two shared resources processors wait on: the
workload barrier (``ScalableTCCSystem.arrive_at_barrier``) and the token
baseline's commit token (``repro.baseline.token.CommitToken``).  Both
park the waiting process and wake it with :meth:`Process.resume`."""

import pytest

from repro import ScalableTCCSystem, SystemConfig
from repro.baseline.token import CommitToken
from repro.sim import Engine, Process
from repro.workloads.micro import ProducerConsumerWorkload


def spawn(engine, body, name="process"):
    """Start the generator ``body(process)`` on ``engine``; it is handed
    its own :class:`Process`, which the waits need."""
    holder = []

    def run():
        yield from body(holder[0])

    holder.append(Process(engine, run(), name=name))
    return holder[0]


# -- the workload barrier -----------------------------------------------


def test_barrier_releases_all_parties_together():
    system = ScalableTCCSystem(SystemConfig(n_processors=3))
    engine = system.engine
    released = []

    def worker(tag, arrive_at):
        def body(process):
            yield arrive_at
            yield system.arrive_at_barrier(process)
            released.append((tag, engine.now))
        return body

    # Made in one order, arriving in another: b, then c, then a.
    for tag, arrive_at in (("a", 9), ("b", 1), ("c", 5)):
        spawn(engine, worker(tag, arrive_at))
    engine.run()
    # The earlier arrivals in arrival order, then the last one.
    assert released == [("b", 9), ("c", 9), ("a", 9)]


def test_barrier_is_cyclic():
    system = ScalableTCCSystem(SystemConfig(n_processors=2))
    engine = system.engine
    phases = []

    def worker(tag, delays):
        def body(process):
            for phase, delay in enumerate(delays):
                yield delay
                yield system.arrive_at_barrier(process)
                phases.append((tag, phase, engine.now))
        return body

    spawn(engine, worker("a", [1, 1]))
    spawn(engine, worker("b", [4, 10]))
    engine.run()
    assert phases == [("a", 0, 4), ("b", 0, 4), ("a", 1, 14), ("b", 1, 14)]


def test_barrier_single_party_never_blocks():
    system = ScalableTCCSystem(SystemConfig(n_processors=1))
    process = Process(system.engine, (_ for _ in ()))
    for _ in range(3):
        assert system.arrive_at_barrier(process) == 0


def test_one_cpu_barrier_run_never_parks_and_idles_zero_cycles():
    system = ScalableTCCSystem(SystemConfig(n_processors=1))
    arrivals = []
    arrive = system.arrive_at_barrier

    def recorded(process):
        arrivals.append(arrive(process))
        return arrivals[-1]

    system.arrive_at_barrier = recorded
    result = system.run(ProducerConsumerWorkload(phases=3))
    assert arrivals == [0] * 6
    assert result.proc_stats[0].idle_cycles == 0


# -- the commit token ---------------------------------------------------


def test_resource_grants_immediately_when_free():
    engine = Engine()
    token = CommitToken()
    granted = []

    def worker(process):
        yield token.acquire(process)
        granted.append(engine.now)
        token.release()

    spawn(engine, worker)
    engine.run()
    assert granted == [0]
    assert token.total_acquisitions == 1
    assert not token.held


def test_resource_serializes_holders_fifo():
    engine = Engine()
    token = CommitToken()
    log = []

    def worker(tag, hold):
        def body(process):
            yield token.acquire(process)
            log.append((tag, engine.now))
            yield hold
            token.release()
        return body

    spawn(engine, worker("a", 10))
    spawn(engine, worker("b", 5))
    spawn(engine, worker("c", 1))
    engine.run()
    assert log == [("a", 0), ("b", 10), ("c", 15)]
    assert token.total_acquisitions == 3
    assert not token.held and token.queue_length == 0


def test_resource_queue_length_visible():
    engine = Engine()
    token = CommitToken()

    def holder(process):
        yield token.acquire(process)
        yield 10
        token.release()

    def waiter(process):
        assert (yield token.acquire(process)) is None
        token.release()

    spawn(engine, holder)
    spawn(engine, waiter)
    engine.run(until=5)
    assert token.held and token.queue_length == 1
    engine.run()
    assert not token.held and token.queue_length == 0


def test_release_without_hold_raises():
    token = CommitToken()
    with pytest.raises(RuntimeError, match="not held"):
        token.release()
