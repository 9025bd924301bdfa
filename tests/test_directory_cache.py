"""Tests for the finite directory-cache timing model."""

import pytest

from repro import ScalableTCCSystem, SystemConfig, Transaction
from repro.memory.cache import TagLRU as _DirectoryCache
from repro.workloads.base import Workload


class TestUnit:
    def test_miss_then_hit(self):
        cache = _DirectoryCache(4)
        assert not cache.access(1)
        assert cache.access(1)

    def test_lru_eviction(self):
        cache = _DirectoryCache(2)
        cache.access(1)
        cache.access(2)
        cache.access(1)      # refresh 1
        cache.access(3)      # evicts 2
        assert cache.access(1)
        assert not cache.access(2)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            _DirectoryCache(0)


class Scripted(Workload):
    def __init__(self, schedules):
        self.schedules = schedules

    def schedule(self, proc, n_procs):
        return iter(self.schedules[proc])


def run(schedules, **kwargs):
    kwargs.setdefault("n_processors", len(schedules))
    kwargs.setdefault("ordered_network", True)
    system = ScalableTCCSystem(SystemConfig(**kwargs))
    result = system.run(Scripted(schedules), max_cycles=100_000_000)
    return system, result


def _hot_workload(lines=2, repeats=12):
    txs = []
    for i in range(repeats):
        addr = (i % lines) * 32
        txs.append(Transaction(i, [("c", 5), ("add", addr, 1)]))
    return [txs]


class TestIntegration:
    def test_small_working_set_hits_after_warmup(self):
        system, result = run(_hot_workload(), directory_cache_entries=64)
        stats = system.directories[0].stats
        assert stats.dir_cache_hits > stats.dir_cache_misses
        assert stats.dir_cache_hit_rate > 0.5

    def test_thrashing_working_set_misses(self):
        # 64 distinct lines through a 2-entry directory cache
        txs = [
            Transaction(i, [("c", 5), ("st", i * 32, i)]) for i in range(64)
        ]
        system, result = run([txs], directory_cache_entries=2)
        stats = system.directories[0].stats
        assert stats.dir_cache_misses > stats.dir_cache_hits

    def test_ideal_cache_records_nothing(self):
        system, result = run(_hot_workload(), directory_cache_entries=None)
        stats = system.directories[0].stats
        assert stats.dir_cache_hits == 0
        assert stats.dir_cache_misses == 0
        assert stats.dir_cache_hit_rate == 1.0

    def test_finite_cache_costs_cycles(self):
        _, ideal = run(_hot_workload(lines=16, repeats=32))
        _, tiny = run(
            _hot_workload(lines=16, repeats=32), directory_cache_entries=1
        )
        assert tiny.cycles > ideal.cycles

    def test_correctness_unaffected_by_cache_size(self):
        # Timing model only: the counter totals stay exact.
        for entries in (None, 1, 8):
            schedules = [
                [Transaction(p * 100 + i, [("c", 3), ("add", 0, 1)])
                 for i in range(5)]
                for p in range(4)
            ]
            system, result = run(schedules, directory_cache_entries=entries)
            assert result.memory_image[0][0] == 20
