"""Unit tests for a run's derived numbers and the analysis layer."""

import pytest

from repro import ScalableTCCSystem, SystemConfig
from repro.analysis import (
    format_breakdown_figure,
    format_table,
    format_traffic_figure,
    run_points,
)
from repro.core.result import _percentile as percentile
from repro.workloads import CounterWorkload, PrivateWorkload


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 90) == 0.0

    def test_single_sample(self):
        assert percentile([7], 50) == 7.0

    def test_median_of_two(self):
        assert percentile([0, 10], 50) == 5.0

    def test_p90_interpolation(self):
        assert percentile(list(range(11)), 90) == 9.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 150)


@pytest.fixture(scope="module")
def small_run():
    system = ScalableTCCSystem(SystemConfig(n_processors=4))
    result = system.run(
        CounterWorkload(n_counters=4, increments_per_proc=5),
        max_cycles=20_000_000,
    )
    return result


class TestResultAccessors:
    def test_breakdown_sums_to_total(self, small_run):
        breakdown = small_run.breakdown()
        total = small_run.cycles * len(small_run.proc_stats)
        assert sum(breakdown.values()) == pytest.approx(total, rel=0.01)

    def test_breakdown_fractions_sum_to_one(self, small_run):
        fractions = small_run.summary().breakdown_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0, rel=0.01)

    def test_bytes_per_instruction_positive(self, small_run):
        bpi = small_run.summary().bytes_per_instruction()
        assert set(bpi) == {"commit", "miss", "writeback", "overhead"}
        assert all(v >= 0 for v in bpi.values())
        assert sum(bpi.values()) > 0

    def test_committed_counts(self, small_run):
        assert small_run.committed_transactions == 20
        assert small_run.committed_instructions > 0


class TestCharacteristics:
    def test_table3_row_extraction(self, small_run):
        row = small_run.summary()
        assert row.n_processors == 4
        assert row.tx_size_p90 > 0
        assert row.write_set_p90_kb > 0
        assert row.read_set_p90_kb > 0
        assert row.ops_per_word_written > 0
        assert 1 <= row.dirs_per_commit_p90 <= 4
        assert row.occupancy_p90_cycles > 0
        assert row.working_set_p90_entries > 0


class TestSpeedup:
    def test_speedup_of_identical_runs_is_one(self, small_run):
        summary = small_run.summary()
        assert summary.speedup_over(summary) == 1.0

    def test_parallel_speedup_positive(self):
        results = {}
        for n in (1, 4):
            system = ScalableTCCSystem(SystemConfig(n_processors=n))
            results[n] = system.run(
                PrivateWorkload(tx_per_proc=16 // n, compute=500),
                max_cycles=50_000_000,
            )
        assert results[4].summary().speedup_over(results[1].summary()) > 1.5


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_breakdown_figure_includes_speedups(self):
        text = format_breakdown_figure(
            "Figure 7",
            {"app@8": {"useful": 0.5, "miss": 0.2, "idle": 0.3}},
            {"app@8": 6.0},
        )
        assert "Figure 7" in text
        assert "50.0%" in text
        assert "6.0x" in text

    def test_traffic_figure(self):
        text = format_traffic_figure(
            "Figure 9", {"app": {"commit": 0.01, "miss": 0.02,
                                 "writeback": 0.005, "overhead": 0.001}}
        )
        assert "0.0100" in text
        assert "total" in text


class TestExperimentDrivers:
    def test_run_app_small(self):
        results, stats = run_points(
            {"barnes": ("barnes", SystemConfig(n_processors=2))}, scale=0.05
        )
        assert list(results) == ["barnes"]
        assert results["barnes"].committed_transactions > 0
        assert stats.total == stats.executed == 1

    def test_run_scaling_returns_per_count(self):
        results, _ = run_points(
            {n: ("barnes", SystemConfig(n_processors=n)) for n in (2, 1)},
            scale=0.05,
        )
        assert list(results) == [2, 1]  # keyed and ordered like the input
        assert results[1].n_processors == 1
        assert results[2].n_processors == 2

    def test_failing_point_raises_naming_its_key(self):
        config = SystemConfig(n_processors=2)
        points = {("barnes", 2): ("barnes", config),
                  ("doom", 2): ("doom", config)}
        with pytest.raises(RuntimeError,
                           match=r"point \('doom', 2\).*unknown application"):
            run_points(points, scale=0.05)
