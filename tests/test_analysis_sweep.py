"""Tests for ``repro sweep``: a Cartesian grid of config overrides over
one application, rendered as a table, a best point and a CSV file."""

from repro.cli import main

BASE = ["sweep", "barnes", "-n", "2", "--scale", "0.05", "--jobs", "1",
        "--no-cache"]


def sweep(capsys, tmp_path, *argv):
    """Run the sweep command; returns (stdout, csv rows as dicts)."""
    csv_path = tmp_path / "sweep.csv"
    assert main(BASE + list(argv) + ["--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    header, *lines = csv_path.read_text().splitlines()
    keys = header.split(",")
    return out, [dict(zip(keys, line.split(","))) for line in lines]


class TestSweep:
    def test_grid_size(self, capsys, tmp_path):
        out, rows = sweep(capsys, tmp_path, "--grid", "link_latency=1,3",
                          "--grid", "granularity=word,line")
        assert len(rows) == 4
        assert "runner: 4 job(s)" in out

    def test_run_collects_all_points(self, capsys, tmp_path):
        _, rows = sweep(capsys, tmp_path, "--grid", "link_latency=1,6")
        assert [row["link_latency"] for row in rows] == ["1", "6"]
        # higher link latency never speeds things up
        assert int(rows[1]["cycles"]) >= int(rows[0]["cycles"])

    def test_table_and_csv_rendering(self, capsys, tmp_path):
        out, rows = sweep(capsys, tmp_path, "--grid", "link_latency=1,6")
        table = out.split("runner:")[0]
        assert "link_latency" in table
        assert "cycles" in table
        assert len(rows) == 2
        assert list(rows[0])[0] == "link_latency"

    def test_best_point(self, capsys, tmp_path):
        out, _ = sweep(capsys, tmp_path, "--grid", "link_latency=6,1",
                       "--best", "cycles")
        assert "best cycles: {'link_latency': 1}" in out
