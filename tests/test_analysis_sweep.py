"""Tests for the sweep utility."""

import pytest

from repro import SystemConfig
from repro.analysis.sweep import Sweep


class TestSweep:
    def make_sweep(self, grid):
        return Sweep(
            SystemConfig(n_processors=2, ordered_network=True),
            grid,
            ("app", {"name": "barnes", "scale": 0.05}),
            max_cycles=500_000_000,
        )

    def test_grid_size(self):
        sweep = self.make_sweep(
            {"link_latency": [1, 3], "granularity": ["word", "line"]}
        )
        assert len(sweep) == 4

    def test_run_collects_all_points(self):
        sweep = self.make_sweep({"link_latency": [1, 6]})
        points = sweep.run()
        assert len(points) == 2
        assert points[0].overrides == {"link_latency": 1}
        assert points[1].overrides == {"link_latency": 6}
        # higher link latency never speeds things up
        assert points[1].result.cycles >= points[0].result.cycles

    def test_table_and_csv_rendering(self):
        sweep = self.make_sweep({"link_latency": [1, 6]})
        sweep.run()
        table = sweep.as_table()
        assert "link_latency" in table
        assert "cycles" in table
        csv_text = sweep.as_csv()
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3  # header + 2 points
        assert lines[0].startswith("link_latency,")

    def test_best_point(self):
        sweep = self.make_sweep({"link_latency": [6, 1]})
        sweep.run()
        assert sweep.best("cycles").overrides["link_latency"] == 1

    def test_rendering_before_run_rejected(self):
        sweep = self.make_sweep({"link_latency": [1]})
        with pytest.raises(RuntimeError):
            sweep.as_table()
