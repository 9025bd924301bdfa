"""Odd machine shapes: non-square, prime, and large processor counts."""

import pytest

from repro import ScalableTCCSystem, SystemConfig
from repro.workloads import CounterWorkload, PrivateWorkload


@pytest.mark.parametrize("n", [3, 5, 7, 12, 24, 48])
def test_non_square_processor_counts(n):
    system = ScalableTCCSystem(SystemConfig(n_processors=n))
    wl = CounterWorkload(n_counters=2, increments_per_proc=4)
    result = system.run(wl, max_cycles=200_000_000)
    total = sum(
        result.memory_image.get(wl.counter_addr(i) // 32, [0] * 8)[0]
        for i in range(2)
    )
    assert total == wl.expected_total(n)


def test_hundred_processors():
    system = ScalableTCCSystem(SystemConfig(n_processors=100))
    result = system.run(PrivateWorkload(tx_per_proc=2), max_cycles=500_000_000)
    assert result.committed_transactions == 200
    assert result.total_violations == 0


@pytest.mark.parametrize("line_size,word_size", [(64, 4), (32, 8), (64, 8)])
def test_alternative_line_geometries(line_size, word_size):
    system = ScalableTCCSystem(
        SystemConfig(n_processors=4, line_size=line_size, word_size=word_size)
    )
    wl = CounterWorkload(n_counters=2, increments_per_proc=4)
    result = system.run(wl, max_cycles=200_000_000)
    total = sum(
        result.memory_image.get(wl.counter_addr(i) // line_size,
                                [0] * (line_size // word_size))[0]
        for i in range(2)
    )
    assert total == wl.expected_total(4)
